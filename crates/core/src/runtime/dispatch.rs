use super::table::SlotId as _;
use super::*;

/// One agent's throttle as the negotiator last set it (DESIGN.md §2.10).
/// Neutral values leave delivery byte-identical to a runtime without
/// negotiation.
#[derive(Debug, Clone)]
pub(crate) struct Throttle {
    /// Multiplier on per-message work cost (strategy downgrade).
    pub(crate) cost_scale: f64,
    /// Offered-message counter: the shed gate's sequence number, and the
    /// demand the negotiator reads.
    offered: u64,
    /// Admitted messages per 1000 offered (load shedding).
    pub(crate) keep_permille: u32,
    /// Cap on connector retry attempts; `u32::MAX`, the neutral value,
    /// caps nothing.
    pub(crate) retry_cap: u32,
}

impl Default for Throttle {
    fn default() -> Self {
        Throttle {
            cost_scale: 1.0,
            offered: 0,
            keep_permille: 1000,
            retry_cap: u32::MAX,
        }
    }
}

impl Throttle {
    /// Back to neutral, the offer count kept.
    pub(crate) fn reset(&mut self) {
        *self = Throttle {
            offered: self.offered,
            ..Throttle::default()
        };
    }
}

/// The admission gate the dispatch path runs for every delivery: one
/// [`Throttle`] per instance id, one for every name known when the gate
/// opens and grown on first touch for the rest. Off until the
/// negotiation control plane is enabled.
#[derive(Debug, Clone, Default)]
pub(super) struct Gate {
    on: bool,
    throttles: Vec<Throttle>,
}

impl Gate {
    /// Turns the gate on, with a neutral throttle for each of `ids`.
    pub(super) fn open(&mut self, ids: usize) {
        self.on = true;
        if ids > self.throttles.len() {
            self.throttles.resize_with(ids, Throttle::default);
        }
    }

    pub(super) fn throttle(&mut self, id: InstId) -> &mut Throttle {
        if id.index() >= self.throttles.len() {
            self.throttles
                .resize_with(id.index() + 1, Throttle::default);
        }
        &mut self.throttles[id.index()]
    }

    /// Returns `(cost_scale, admit)` for a delivery to `to`; neutral when
    /// the gate is off.
    pub(super) fn admit(&mut self, to: InstId) -> (f64, bool) {
        if !self.on {
            return (1.0, true);
        }
        let t = self.throttle(to);
        let seq = t.offered;
        t.offered += 1;
        let admit = t.keep_permille >= 1000 || seq % 1000 < u64::from(t.keep_permille);
        (t.cost_scale, admit)
    }

    /// The retry-budget cap for deliveries to `to`: `u32::MAX` unless one
    /// was granted.
    pub(super) fn retry_cap(&self, to: InstId) -> u32 {
        let throttle = self.throttles.get(to.index()).filter(|_| self.on);
        throttle.map_or(u32::MAX, |t| t.retry_cap)
    }

    pub(super) fn offered(&self, id: InstId) -> u64 {
        self.throttles.get(id.index()).map_or(0, |t| t.offered)
    }

    pub(super) fn offers(&self) -> impl Iterator<Item = (InstId, u64)> + '_ {
        let offers = self.throttles.iter().enumerate();
        offers.map(|(i, t)| (InstId::from_index(i), t.offered))
    }
}

impl Runtime {
    /// Puts the stored message `r` on `ch`. A refused send is counted
    /// and, like any other drop, offered to the connector's retry policy.
    pub(super) fn send_on(&mut self, ch: ChannelId, r: MsgRef, size: u64) {
        if !self.kernel.send(ch, r, size).is_sent() {
            self.m.dropped.incr();
            self.maybe_retry(r);
        }
    }

    /// What becomes of a dropped message: parked for a backed-off
    /// redelivery if the mediating connector carries a retry policy with
    /// attempts to spare, gone otherwise.
    pub(super) fn maybe_retry(&mut self, r: MsgRef) {
        let env = &self.arena[r];
        let policy = env
            .via
            .and_then(|via| self.connectors.get(via))
            .and_then(|c| c.spec().retry);
        let back_off = policy.and_then(|policy| {
            // The negotiated retry budget caps (never raises) the
            // connector's own policy.
            let cap = self.gate.retry_cap(env.to);
            (env.attempt + 1 < policy.max_attempts.min(cap)).then(|| policy.delay_for(env.attempt))
        });
        let Some(delay) = back_off else {
            return self.arena.free(r);
        };
        self.arena[r].attempt += 1;
        self.m.retries.incr();
        self.arena.set_stage(r, Stage::Retry);
        self.arm_message(delay, r);
    }

    /// Re-sends a retried message over its binding's current channel.
    pub(super) fn resend(&mut self, r: MsgRef) {
        let env = &self.arena[r];
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
            return self.arena.free(r); // binding went away; the retry dies quietly
        };
        let size = env.msg.wire_size();
        self.arena.set_stage(r, Stage::Transit);
        self.send_on(ch, r, size);
    }

    /// Counts a drop in transit or at delivery and offers the message for
    /// retry.
    pub(super) fn on_dropped(&mut self, r: MsgRef) {
        self.m.dropped.incr();
        self.maybe_retry(r);
    }

    /// Counts the stored message `r`, whose target's name bears no
    /// instance, and frees it: there is no one to retry towards.
    pub(super) fn drop_unaddressed(&mut self, r: MsgRef) {
        self.m.dropped.incr();
        self.m.count_cause(&self.obs, DropCause::Unaddressed);
        self.arena.free(r);
    }

    pub(super) fn on_delivered(&mut self, r: MsgRef) {
        let env = &self.arena[r];
        let to = env.to;
        let Some(inst) = self.instances.get(to) else {
            return self.drop_unaddressed(r);
        };
        if inst.lifecycle == Lifecycle::Failed {
            return self.on_dropped(r);
        }
        // Negotiation admission gate: a granted-down agent sheds the
        // overflow deterministically and cheapens what it does admit.
        let (cost_scale, admit) = self.gate.admit(to);
        if !admit {
            self.m.shed.incr();
            return self.arena.free(r);
        }
        let cost = (env.extra_cost + inst.component.work_cost(&env.msg)) * cost_scale;
        let Some(delay) = self.kernel.run_job(inst.node, cost) else {
            return self.on_dropped(r);
        };
        self.m.delivered.incr();
        self.instances.get_mut(to).expect("found above").inflight += 1;
        self.arena.set_stage(r, Stage::InService);
        self.arm_message(delay, r);
    }

    /// The handler job of the stored message `r` finished: the message is
    /// moved out of its slot to the target, which owns it from then on, and
    /// the slot — still naming sender, target and connector — is free once
    /// the effects, which may reply to the sender, are applied.
    pub(super) fn on_job_done(&mut self, r: MsgRef, now: SimTime) {
        let env = &mut self.arena[r];
        let to = env.to;
        let Some(inst) = self.instances.get_mut(to) else {
            return self.arena.free(r);
        };
        inst.inflight = inst.inflight.saturating_sub(1);

        // Channel-preservation accounting (loss/dup/reorder detection), at
        // the receiver and on the connector's sequence check.
        if env.msg.kind != MessageKind::Reply {
            let _ = inst.tracker.observe(&env.msg.from, env.msg.seq);
            let conn = env.via.and_then(|via| self.connectors.get_mut(via));
            if let Some(conn) = conn.filter(|c| c.has_sequence_check()) {
                let flow = (env.from.index() as u64, to.index() as u64);
                conn.observe_sequence(flow, env.msg.seq);
            }
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
        let mut request = None;
        if deliver {
            let msg = std::mem::replace(&mut env.msg, Message::event("", Value::Null));
            request = (msg.kind == MessageKind::Request).then(|| Request {
                from: env.from,
                id: msg.id,
                op: msg.op.clone(),
            });
            let mut ctx = CallCtx::with_buffer(now, &inst.name, effects);
            if inst.component.on_message(&mut ctx, msg).is_err() {
                inst.errors += 1;
                self.m.handler_errors.incr();
            }
            effects = ctx.into_effects();
        }
        inst.processed += 1;

        let drained = inst.lifecycle == Lifecycle::Quiescing && inst.inflight == 0;
        if drained {
            inst.lifecycle = Lifecycle::Quiescent;
        }
        self.apply_effects(to, effects, request.as_ref(), now);
        self.arena.free(r);
        if drained {
            self.advance_reconfig();
        }
    }

    pub(super) fn dispatch_send(&mut self, from: InstId, port: &str, msg: Message) {
        let now = self.kernel.now();
        let sender = self.instances.get(from).expect("the sender just ran");
        let Ok(port) = sender.port(port) else {
            self.m.unrouted.incr();
            return;
        };
        let binding = &sender.ports[port];
        let via = binding.via;
        let connector = self.connectors.get_mut(via).expect("bound connector");
        let mediation = connector.mediate(&msg, now, binding.targets.len());

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
            let size = (copy.wire_size() as f64 * mediation.size_factor) as u64;
            let r = self.admit(from, to, copy, Some(via), mediation.extra_cost);
            self.send_on(ch, r, size);
        }
    }

    /// Stores a message headed from `from` to `to` as it is sent.
    pub(super) fn admit(
        &mut self,
        from: InstId,
        to: InstId,
        msg: Message,
        via: Option<ConnId>,
        extra_cost: f64,
    ) -> MsgRef {
        let env = Envelope {
            msg,
            from,
            to,
            extra_cost,
            via,
            attempt: 0,
        };
        let r = self.arena.insert(env, Stage::Transit);
        self.stamp(r);
        r
    }

    /// Assigns id, per-flow sequence number, sender and timestamp to the
    /// stored message `r` at the moment it is sent, and registers pending
    /// requests.
    pub(super) fn stamp(&mut self, r: MsgRef) {
        let Envelope { msg, from, to, .. } = &mut self.arena[r];
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.from = self.instances.name(*from).clone();
        msg.sent_at = self.kernel.now();
        if msg.kind != MessageKind::Reply {
            let seq = self.flow_seq.entry((*from, *to)).or_insert(0);
            msg.seq = *seq;
            *seq += 1;
        }
        if msg.kind == MessageKind::Request {
            self.pending_requests.insert(msg.id, msg.sent_at);
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
        let size = reply.wire_size();
        let r = self.admit(from, to, reply, None, 0.0);
        self.send_on(ch, r, size);
    }

    /// Applies the effects a handler of `from` buffered, in order, and
    /// hands the emptied buffer back for the next handler call. `request`
    /// is the request that handler was given, if it was given one: a
    /// reply to anything else goes nowhere.
    pub(super) fn apply_effects(
        &mut self,
        from: InstId,
        mut effects: Vec<Effect>,
        request: Option<&Request>,
        now: SimTime,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { port, message } => {
                    self.dispatch_send(from, &port, message);
                }
                Effect::Reply { value } => {
                    if let Some(req) = request {
                        let reply = Message::reply(req.id, &req.op, value);
                        self.route_reply(from, req.from, reply, now);
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    self.arm(
                        delay,
                        TimerPurpose::ComponentTimer {
                            instance: from,
                            tag,
                        },
                    );
                }
                Effect::Metric { name, value } => {
                    let metrics = &self.obs.metrics;
                    if let Some(inst) = self.instances.get_mut(from) {
                        let owner = &inst.name;
                        inst.custom
                            .entry(name)
                            .or_insert_with_key(|key| {
                                metrics.histogram(&format!("comp.{owner}.{key}"))
                            })
                            .observe(value);
                    }
                }
            }
        }
        self.effects_buf = effects;
    }
}
