use super::*;

impl Runtime {
    /// Schedules a backed-off redelivery for a dropped envelope if the
    /// mediating connector carries a retry policy with attempts to spare.
    pub(super) fn maybe_retry(&mut self, mut env: Envelope) {
        let Some(policy) = env
            .via
            .and_then(|via| self.connectors.get(via))
            .and_then(|c| c.spec().retry)
        else {
            return;
        };
        // The negotiated retry budget caps (never raises) the connector's
        // own policy.
        let max_attempts = match self.negotiate_retry_cap(self.instances.name(env.to)) {
            Some(cap) => policy.max_attempts.min(cap),
            None => policy.max_attempts,
        };
        if env.attempt + 1 >= max_attempts {
            return;
        }
        let delay = policy.delay_for(env.attempt);
        env.attempt += 1;
        self.m.retries.incr();
        self.arm(delay, TimerPurpose::Retry(env));
    }

    /// Re-sends a retried envelope over its binding's current channel.
    pub(super) fn resend(&mut self, env: Envelope) {
        let channel = env.via.and_then(|via| {
            let sender = self.instances.get(env.from)?;
            sender
                .ports
                .iter()
                .rev()
                .filter(|b| b.via == via)
                .find_map(|b| b.targets.iter().find(|(to, _)| *to == env.to))
        });
        let Some(&(_, ch)) = channel else {
            return; // binding went away; the retry dies quietly
        };
        let size = env.msg.wire_size();
        let backup = env.clone();
        if !self.kernel.send(ch, env, size).is_sent() {
            self.m.dropped.incr();
            self.maybe_retry(backup);
        }
    }

    /// Rebinds every channel touching `id`'s instance to its new node.
    pub(super) fn rehome_channels(&mut self, id: InstId, node: NodeId) {
        let node_of = |other: InstId| {
            if other == id {
                Some(node)
            } else {
                self.instances.get(other).map(|i| i.node)
            }
        };
        let mut updates: Vec<(ChannelId, NodeId, NodeId)> = Vec::new();
        if let Some(inst) = self.instances.get(id) {
            updates.push((inst.external, node, node));
        }
        for (&(from, to), &ch) in &self.reply_channels {
            if from == id || to == id {
                if let (Some(s), Some(d)) = (node_of(from), node_of(to)) {
                    updates.push((ch, s, d));
                }
            }
        }
        for (src, inst) in self.instances.iter() {
            for &(to, ch) in inst.ports.iter().flat_map(|b| &b.targets) {
                if src == id || to == id {
                    if let (Some(s), Some(d)) = (node_of(src), node_of(to)) {
                        updates.push((ch, s, d));
                    }
                }
            }
        }
        for (ch, s, d) in updates {
            self.kernel.rebind_channel(ch, s, d);
        }
    }

    /// Counts a delivery-time drop, reports it and offers it for retry.
    fn drop_at_delivery(&mut self, env: Envelope, now: SimTime, reason: String) {
        self.m.dropped.incr();
        self.events.push((now, RuntimeEvent::Dropped { reason }));
        self.maybe_retry(env);
    }

    pub(super) fn on_delivered(&mut self, env: Envelope, now: SimTime) {
        let Some(inst) = self.instances.get(env.to) else {
            self.m.dropped.incr();
            self.events.push((
                now,
                RuntimeEvent::Dropped {
                    reason: format!("no instance `{}`", self.instances.name(env.to)),
                },
            ));
            return;
        };
        if inst.lifecycle == Lifecycle::Failed {
            let reason = format!("instance `{}` failed", inst.name);
            return self.drop_at_delivery(env, now, reason);
        }
        // Negotiation admission gate: a granted-down agent sheds the
        // overflow deterministically and cheapens what it does admit.
        let (cost_scale, admit) = self.negotiate.admit(&inst.name);
        if !admit {
            self.negotiate.shed_total += 1;
            self.m.shed.incr();
            return;
        }
        let cost = (env.extra_cost + inst.component.work_cost(&env.msg)) * cost_scale;
        let Some(delay) = self.kernel.run_job(inst.node, cost) else {
            let reason = format!("node for `{}` down", inst.name);
            return self.drop_at_delivery(env, now, reason);
        };
        self.m.delivered.incr();
        self.instances
            .get_mut(env.to)
            .expect("found above")
            .inflight += 1;
        self.arm(delay, TimerPurpose::JobDone(env));
    }

    pub(super) fn on_job_done(&mut self, env: Envelope, now: SimTime) {
        let Some(inst) = self.instances.get_mut(env.to) else {
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
                if let Some(sent) = self.pending_requests.remove(&corr) {
                    self.m.rtt.observe(ms(now.saturating_since(sent)));
                }
            }
        }

        // Hand to the component (replies only if it declares the op).
        let deliver =
            env.msg.kind != MessageKind::Reply || inst.component.provided().provides(&env.msg.op);
        let mut effects = std::mem::take(&mut self.effects_buf);
        if deliver {
            let mut ctx = CallCtx::with_buffer(now, &inst.name, effects);
            if let Err(e) = inst.component.on_message(&mut ctx, &env.msg) {
                inst.errors += 1;
                self.m.handler_errors.incr();
                self.events.push((
                    now,
                    RuntimeEvent::HandlerError {
                        instance: inst.name.to_string(),
                        details: e.to_string(),
                    },
                ));
            }
            effects = ctx.into_effects();
        }
        inst.processed += 1;

        let drained = inst.lifecycle == Lifecycle::Quiescing && inst.inflight == 0;
        if drained {
            inst.lifecycle = Lifecycle::Quiescent;
        }
        self.apply_effects(env.to, effects, Some(&env), now);
        if drained {
            self.advance_reconfig();
        }
    }

    pub(super) fn dispatch_send(&mut self, from: InstId, port: &str, msg: Message) {
        let now = self.kernel.now();
        let sender = self.instances.get(from).expect("the sender just ran");
        let Ok(port) = sender.port(port) else {
            self.m.unrouted.incr();
            self.events.push((
                now,
                RuntimeEvent::Dropped {
                    reason: format!("no binding at `{}.{port}`", sender.name),
                },
            ));
            return;
        };
        let binding = &sender.ports[port];
        let via = binding.via;
        let connector = self.connectors.get_mut(via).expect("bound connector");
        let mediation = connector.mediate(&msg, now, binding.targets.len());
        let has_retry = connector.spec().retry.is_some();
        if let Some(v) = &mediation.violation {
            self.events.push((
                now,
                RuntimeEvent::ProtocolViolation {
                    connector: self.connectors.name(via).to_string(),
                    details: v.to_string(),
                },
            ));
        }

        // Every chosen target but the last gets a copy; the last (almost
        // always the only one) gets the message itself.
        let mut msg = Some(msg);
        for idx in mediation.targets.clone() {
            let (to, ch) =
                self.instances.get(from).expect("the sender just ran").ports[port].targets[idx];
            let copy = if idx + 1 == mediation.targets.end {
                msg.take()
            } else {
                msg.clone()
            }
            .expect("taken only for the last target");
            let mut env = self.finalize(from, to, copy, Some(via));
            env.extra_cost = mediation.extra_cost;
            let size = (env.msg.wire_size() as f64 * mediation.size_factor) as u64;
            let backup = has_retry.then(|| env.clone());
            if !self.kernel.send(ch, env, size).is_sent() {
                self.m.dropped.incr();
                if let Some(env) = backup {
                    self.maybe_retry(env);
                }
            }
        }

        // Deferred connector interchange: apply once the collaboration
        // automaton reaches a final (quiescent) state.
        if self.pending_connector_swaps.contains_key(&via) {
            let quiescent = self
                .connectors
                .get(via)
                .is_some_and(Connector::at_quiescent_point);
            if quiescent {
                if let Some(spec) = self.pending_connector_swaps.remove(&via) {
                    let name = self.connectors.name(via).clone();
                    let _ = self.adapt_connector(&name, spec);
                }
            }
        }
    }

    /// Assigns id, per-flow sequence number, sender and timestamp to a
    /// message copy headed for `to`, and registers pending requests.
    pub(super) fn finalize(
        &mut self,
        from: InstId,
        to: InstId,
        mut msg: Message,
        via: Option<ConnId>,
    ) -> Envelope {
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.from = self.instances.name(from).clone();
        msg.sent_at = self.kernel.now();
        if msg.kind != MessageKind::Reply {
            let seq = self.flow_seq.entry((from, to)).or_insert(0);
            msg.seq = *seq;
            *seq += 1;
            if let Some(conn) = via.and_then(|via| self.connectors.get_mut(via)) {
                if conn.has_sequence_check() {
                    use std::fmt::Write as _;
                    self.seq_key_buf.clear();
                    let _ = write!(
                        self.seq_key_buf,
                        "{}->{}",
                        msg.from,
                        self.instances.name(to)
                    );
                    conn.observe_sequence(&self.seq_key_buf, msg.seq);
                }
            }
        }
        if msg.kind == MessageKind::Request {
            self.pending_requests.insert(msg.id, msg.sent_at);
        }
        Envelope {
            msg,
            from,
            to,
            extra_cost: 0.0,
            via,
            attempt: 0,
            kind: EnvKind::Normal,
        }
    }

    pub(super) fn route_reply(
        &mut self,
        from: InstId,
        to: InstId,
        mut reply: Message,
        now: SimTime,
    ) {
        if to == self.external {
            reply.id = MessageId(self.next_msg_id);
            self.next_msg_id += 1;
            reply.from = self.instances.name(from).clone();
            reply.sent_at = now;
            if let Some(corr) = reply.correlation {
                if let Some(sent) = self.pending_requests.remove(&corr) {
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
        let kernel = &mut self.kernel;
        let ch = *self
            .reply_channels
            .entry((from, to))
            .or_insert_with(|| kernel.open_channel(from_node, to_node));
        let env = self.finalize(from, to, reply, None);
        let size = env.msg.wire_size();
        if !self.kernel.send(ch, env, size).is_sent() {
            self.m.dropped.incr();
        }
    }
}
