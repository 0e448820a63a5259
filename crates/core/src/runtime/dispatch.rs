use super::*;

impl Runtime {
    /// Schedules a backed-off redelivery for a dropped envelope if the
    /// mediating connector carries a retry policy with attempts to spare.
    pub(super) fn maybe_retry(&mut self, env: Envelope, _now: SimTime) {
        let Some(via) = env.via.as_deref() else {
            return;
        };
        let Some(policy) = self.connectors.get(via).and_then(|c| c.spec().retry) else {
            return;
        };
        // The negotiated retry budget caps (never raises) the connector's
        // own policy.
        let max_attempts = match self.negotiate_retry_cap(&env.to_instance) {
            Some(cap) => policy.max_attempts.min(cap),
            None => policy.max_attempts,
        };
        if env.attempt + 1 >= max_attempts {
            return;
        }
        let delay = policy.delay_for(env.attempt);
        let mut env = env;
        env.attempt += 1;
        self.m.retries.incr();
        let tag = self.kernel.set_timer(delay);
        self.timers.insert(
            tag,
            TimerPurpose::Retry {
                envelope: Box::new(env),
            },
        );
    }

    /// Re-sends a retried envelope over its binding's current channel.
    pub(super) fn resend(&mut self, env: Envelope, now: SimTime) {
        let Some(via) = env.via.clone() else {
            return;
        };
        let mut channel = None;
        for b in self.bindings.values() {
            if b.decl.via != via || b.decl.from.0 != env.msg.from {
                continue;
            }
            for ((inst, _), ch) in b.decl.to.iter().zip(&b.channels) {
                if *inst == env.to_instance {
                    channel = Some(*ch);
                    break;
                }
            }
        }
        let Some(ch) = channel else {
            return; // binding went away; the retry dies quietly
        };
        let size = env.msg.wire_size();
        let backup = env.clone();
        if !self.kernel.send(ch, env, size).is_sent() {
            self.m.dropped.incr();
            self.maybe_retry(backup, now);
        }
    }

    /// Rebinds every channel touching `name` to its new node.
    pub(super) fn rehome_channels(&mut self, name: &str, node: NodeId) {
        if let Some(ch) = self.external_channels.get(name) {
            self.kernel.rebind_channel(*ch, node, node);
        }
        let reply_updates: Vec<(ChannelId, NodeId, NodeId)> = self
            .reply_channels
            .iter()
            .filter_map(|((from, to), ch)| {
                let from_node = if from == name {
                    node
                } else {
                    self.instances.get(from)?.node
                };
                let to_node = if to == name {
                    node
                } else {
                    self.instances.get(to)?.node
                };
                (from == name || to == name).then_some((*ch, from_node, to_node))
            })
            .collect();
        for (ch, s, d) in reply_updates {
            self.kernel.rebind_channel(ch, s, d);
        }
        let mut binding_updates: Vec<(ChannelId, NodeId, NodeId)> = Vec::new();
        for b in self.bindings.values() {
            let src = &b.decl.from.0;
            for ((inst, _), ch) in b.decl.to.iter().zip(&b.channels) {
                if src != name && inst != name {
                    continue;
                }
                let s = if src == name {
                    node
                } else {
                    match self.instances.get(src) {
                        Some(i) => i.node,
                        None => continue,
                    }
                };
                let d = if inst == name {
                    node
                } else {
                    match self.instances.get(inst) {
                        Some(i) => i.node,
                        None => continue,
                    }
                };
                binding_updates.push((*ch, s, d));
            }
        }
        for (ch, s, d) in binding_updates {
            self.kernel.rebind_channel(ch, s, d);
        }
    }

    pub(super) fn on_delivered(&mut self, env: Envelope, now: SimTime) {
        match self.instances.get(&env.to_instance) {
            None => {
                self.m.dropped.incr();
                self.events.push((
                    now,
                    RuntimeEvent::Dropped {
                        reason: format!("no instance `{}`", env.to_instance),
                    },
                ));
                return;
            }
            Some(inst) if inst.lifecycle == Lifecycle::Failed => {
                self.m.dropped.incr();
                self.events.push((
                    now,
                    RuntimeEvent::Dropped {
                        reason: format!("instance `{}` failed", env.to_instance),
                    },
                ));
                self.maybe_retry(env, now);
                return;
            }
            Some(_) => {}
        }
        // Negotiation admission gate: a granted-down agent sheds the
        // overflow deterministically and cheapens what it does admit.
        let (cost_scale, admit) = self.negotiate_admit(&env.to_instance);
        if !admit {
            self.negotiate.shed_total += 1;
            self.m.shed.incr();
            return;
        }
        let inst = self.instances.get_mut(&env.to_instance).expect("checked");
        let cost = (env.extra_cost + inst.component.work_cost(&env.msg)) * cost_scale;
        let node = inst.node;
        let Some(delay) = self.kernel.run_job(node, cost) else {
            self.m.dropped.incr();
            self.events.push((
                now,
                RuntimeEvent::Dropped {
                    reason: format!("node for `{}` down", env.to_instance),
                },
            ));
            self.maybe_retry(env, now);
            return;
        };
        self.m.delivered.incr();
        let inst = self.instances.get_mut(&env.to_instance).expect("checked");
        inst.inflight += 1;
        let instance = env.to_instance.clone();
        let tag = self.kernel.set_timer(delay);
        self.timers.insert(
            tag,
            TimerPurpose::JobDone {
                instance,
                envelope: Box::new(env),
            },
        );
    }

    pub(super) fn on_job_done(&mut self, name: &str, env: Envelope, now: SimTime) {
        let Some(mut inst) = self.instances.remove(name) else {
            return;
        };
        inst.inflight = inst.inflight.saturating_sub(1);

        // Channel-preservation accounting (loss/dup/reorder detection).
        if env.msg.kind != MessageKind::Reply {
            let _ = inst.tracker.observe(&env.msg.from, env.msg.seq);
        }

        // Latency metrics.
        let e2e = now.saturating_since(env.msg.sent_at);
        inst.latency.observe(ms(e2e));
        self.m.e2e_latency.observe(ms(e2e));
        if env.msg.kind == MessageKind::Reply {
            if let Some(corr) = env.msg.correlation {
                if let Some((sent, _)) = self.pending_requests.remove(&corr) {
                    self.m.rtt.observe(ms(now.saturating_since(sent)));
                }
            }
        }

        // Hand to the component (replies only if it declares the op).
        let deliver =
            env.msg.kind != MessageKind::Reply || inst.component.provided().provides(&env.msg.op);
        let mut effects = Vec::new();
        if deliver {
            let mut ctx = CallCtx::new(now, name);
            match inst.component.on_message(&mut ctx, &env.msg) {
                Ok(()) => {}
                Err(e) => {
                    inst.errors += 1;
                    self.m.handler_errors.incr();
                    self.events.push((
                        now,
                        RuntimeEvent::HandlerError {
                            instance: name.to_owned(),
                            details: e.to_string(),
                        },
                    ));
                }
            }
            effects = ctx.into_effects();
        }
        inst.processed += 1;

        let drained = inst.lifecycle == Lifecycle::Quiescing && inst.inflight == 0;
        if drained {
            inst.lifecycle = Lifecycle::Quiescent;
        }
        self.instances.insert(name.to_owned(), inst);
        self.apply_effects(name, effects, Some(&env.msg), now);
        if drained {
            self.advance_reconfig();
        }
    }

    pub(super) fn dispatch_send(&mut self, from: &str, port: &str, msg: Message) {
        let key = (from.to_owned(), port.to_owned());
        let Some(binding) = self.bindings.get(&key) else {
            self.m.unrouted.incr();
            self.events.push((
                self.kernel.now(),
                RuntimeEvent::Dropped {
                    reason: format!("no binding at `{from}.{port}`"),
                },
            ));
            return;
        };
        let via = binding.decl.via.clone();
        let targets_decl = binding.decl.to.clone();
        let channels = binding.channels.clone();

        let now = self.kernel.now();
        let connector = self.connectors.get_mut(&via).expect("bound connector");
        let mediation = connector.mediate(&msg, now, targets_decl.len());
        if let Some(v) = &mediation.violation {
            self.events.push((
                now,
                RuntimeEvent::ProtocolViolation {
                    connector: via.clone(),
                    details: v.to_string(),
                },
            ));
        }

        let has_retry = self
            .connectors
            .get(&via)
            .and_then(|c| c.spec().retry)
            .is_some();
        for idx in mediation.targets {
            let (to_inst, _) = &targets_decl[idx];
            let mut env = self.finalize(from, to_inst, msg.clone(), Some(&via));
            env.extra_cost = mediation.extra_cost;
            let size = (env.msg.wire_size() as f64 * mediation.size_factor) as u64;
            let backup = has_retry.then(|| env.clone());
            if !self.kernel.send(channels[idx], env, size).is_sent() {
                self.m.dropped.incr();
                if let Some(env) = backup {
                    self.maybe_retry(env, now);
                }
            }
        }

        // Deferred connector interchange: apply once the collaboration
        // automaton reaches a final (quiescent) state.
        if self.pending_connector_swaps.contains_key(&via) {
            let quiescent = self
                .connectors
                .get(&via)
                .is_some_and(Connector::at_quiescent_point);
            if quiescent {
                if let Some(spec) = self.pending_connector_swaps.remove(&via) {
                    let _ = self.adapt_connector(&via, spec);
                }
            }
        }
    }

    /// Assigns id, per-flow sequence number, sender and timestamp to a
    /// message copy headed for `to_inst`, and registers pending requests.
    pub(super) fn finalize(
        &mut self,
        from: &str,
        to_inst: &str,
        mut msg: Message,
        via: Option<&str>,
    ) -> Envelope {
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.from = from.to_owned();
        msg.sent_at = self.kernel.now();
        if msg.kind != MessageKind::Reply {
            // Render the `from->to` flow key into the reusable buffer: the
            // sequence bump and the connector's sequence check both look up
            // by `&str`, so steady-state dispatch allocates no key strings.
            use std::fmt::Write as _;
            self.seq_key_buf.clear();
            let _ = write!(self.seq_key_buf, "{from}->{to_inst}");
            let seq = match self.flow_seq.get_mut(self.seq_key_buf.as_str()) {
                Some(seq) => seq,
                None => self.flow_seq.entry(self.seq_key_buf.clone()).or_insert(0),
            };
            msg.seq = *seq;
            *seq += 1;
            if let Some(via) = via {
                if let Some(conn) = self.connectors.get_mut(via) {
                    if conn.has_sequence_check() {
                        conn.observe_sequence(&self.seq_key_buf, msg.seq);
                    }
                }
            }
        }
        if msg.kind == MessageKind::Request {
            self.pending_requests
                .insert(msg.id, (msg.sent_at, from.to_owned()));
        }
        Envelope {
            msg,
            to_instance: to_inst.to_owned(),
            extra_cost: 0.0,
            via: via.map(str::to_owned),
            attempt: 0,
            kind: EnvKind::Normal,
        }
    }

    pub(super) fn route_reply(&mut self, from: &str, to: &str, reply: Message, now: SimTime) {
        if to == EXTERNAL {
            let mut reply = reply;
            reply.id = MessageId(self.next_msg_id);
            self.next_msg_id += 1;
            reply.from = from.to_owned();
            reply.sent_at = now;
            if let Some(corr) = reply.correlation {
                if let Some((sent, _)) = self.pending_requests.remove(&corr) {
                    self.m.rtt.observe(ms(now.saturating_since(sent)));
                }
            }
            self.outbox.push((now, reply));
            return;
        }
        let Some(from_node) = self.instances.get(from).map(|i| i.node) else {
            return;
        };
        let Some(to_node) = self.instances.get(to).map(|i| i.node) else {
            self.m.dropped.incr();
            return;
        };
        let key = (from.to_owned(), to.to_owned());
        let ch = match self.reply_channels.get(&key) {
            Some(ch) => *ch,
            None => {
                let ch = self.kernel.open_channel(from_node, to_node);
                self.reply_channels.insert(key, ch);
                ch
            }
        };
        let env = self.finalize(from, to, reply, None);
        let size = env.msg.wire_size();
        if !self.kernel.send(ch, env, size).is_sent() {
            self.m.dropped.incr();
        }
    }
}
