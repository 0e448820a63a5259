//! Telecom service components for the AAS runtime.
//!
//! Three components form the paper's video composition path — extraction,
//! coding, transfer — as live runtime citizens:
//!
//! - [`MediaSource`] *(extraction)* — generates frames for its active
//!   sessions on a timer, at the current codec level;
//! - [`Transcoder`] *(coding)* — re-encodes frames (scales size, charges
//!   CPU), forwards downstream;
//! - [`MediaSink`] *(transfer endpoint)* — counts delivered frames and
//!   exposes delivery metrics to RAML.
//!
//! All three adapt through plain messages (`set_level`, `set_ratio`) — the
//! message-level adaptation hook that composition filters, injectors and
//! RAML rules can drive.

use crate::codec::{standard_ladder, CodecProfile};
use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature, TypeTag};
use aas_core::message::{Message, Value};
use aas_sim::time::SimDuration;

/// Timer tag used by [`MediaSource`] for its frame clock.
const FRAME_TICK: u64 = 1;

/// Frame generator: one timer tick per frame interval, one frame per
/// active session per tick.
///
/// Operations: `init` (start the frame clock), `session_start`,
/// `session_end`, `set_level(int)`.
#[derive(Debug)]
pub struct MediaSource {
    ladder: Vec<CodecProfile>,
    level: usize,
    active_sessions: i64,
    frames_emitted: u64,
    running: bool,
}

impl Default for MediaSource {
    fn default() -> Self {
        let ladder = standard_ladder();
        let level = ladder.len() - 1;
        MediaSource {
            ladder,
            level,
            active_sessions: 0,
            frames_emitted: 0,
            running: false,
        }
    }
}

impl MediaSource {
    /// A source starting at the given ladder level.
    #[must_use]
    pub fn at_level(level: usize) -> Self {
        let mut s = MediaSource::default();
        s.level = level.min(s.ladder.len() - 1);
        s
    }

    fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / f64::from(self.ladder[self.level].fps))
    }
}

/// The interface every `MediaSource` provides.
static MEDIA_SOURCE: Interface = Interface::fixed("MediaSource", &MEDIA_SOURCE_OPS);
static MEDIA_SOURCE_OPS: [Signature; 4] = [
    Signature::one_way("init"),
    Signature::one_way("session_start"),
    Signature::one_way("session_end"),
    Signature::fixed("set_level", &[TypeTag::Int], TypeTag::Unit),
];

impl Component for MediaSource {
    fn type_name(&self) -> &str {
        "MediaSource"
    }

    fn provided(&self) -> &Interface {
        &MEDIA_SOURCE
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        match msg.op.as_str() {
            "init" => {
                if !self.running {
                    self.running = true;
                    ctx.set_timer(self.frame_interval(), FRAME_TICK);
                }
                Ok(())
            }
            "session_start" => {
                self.active_sessions += 1;
                Ok(())
            }
            "session_end" => {
                self.active_sessions = (self.active_sessions - 1).max(0);
                Ok(())
            }
            "set_level" => {
                let level = msg
                    .value
                    .as_int()
                    .ok_or_else(|| ComponentError::BadPayload("set_level needs int".into()))?;
                self.level = (level.max(0) as usize).min(self.ladder.len() - 1);
                Ok(())
            }
            _ => Err(ComponentError::UnsupportedOperation(msg.op)),
        }
    }

    fn on_timer(&mut self, ctx: &mut CallCtx, tag: u64) {
        if tag != FRAME_TICK || !self.running {
            return;
        }
        let p = &self.ladder[self.level];
        for _ in 0..self.active_sessions {
            self.frames_emitted += 1;
            ctx.send(
                "out",
                Message::event(
                    "frame",
                    Value::map([
                        ("bytes", Value::Int(p.frame_bytes() as i64)),
                        ("cost", Value::Float(p.cpu_cost)),
                        ("level", Value::Int(self.level as i64)),
                        ("quality", Value::Float(p.quality)),
                    ]),
                )
                .with_size(p.frame_bytes()),
            );
        }
        ctx.metric("active_sessions", self.active_sessions as f64);
        ctx.set_timer(self.frame_interval(), FRAME_TICK);
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("MediaSource", 1)
            .with_field("level", Value::Int(self.level as i64))
            .with_field("active_sessions", Value::Int(self.active_sessions))
            .with_field("frames_emitted", Value::Int(self.frames_emitted as i64))
            .with_field("running", Value::Bool(self.running))
    }

    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), StateError> {
        self.level = snap.require("level")?.as_int().unwrap_or(0).max(0) as usize;
        self.level = self.level.min(self.ladder.len() - 1);
        self.active_sessions = snap.require("active_sessions")?.as_int().unwrap_or(0);
        self.frames_emitted = snap.require("frames_emitted")?.as_int().unwrap_or(0).max(0) as u64;
        self.running = snap
            .field("running")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        Ok(())
    }

    fn work_cost(&self, msg: &Message) -> f64 {
        match msg.op.as_str() {
            "frame" => 0.0,
            _ => 0.05,
        }
    }
}

/// Re-encodes frames: scales size by its ratio, charges the frame's cost.
///
/// Operations: `frame`, `set_ratio(float)`.
#[derive(Debug)]
pub struct Transcoder {
    ratio: f64,
    frames: u64,
    bytes_out: u64,
}

impl Default for Transcoder {
    fn default() -> Self {
        Transcoder {
            ratio: 1.0,
            frames: 0,
            bytes_out: 0,
        }
    }
}

/// The interface every `Transcoder` provides.
static TRANSCODER: Interface = Interface::fixed("Transcoder", &TRANSCODER_OPS);
static TRANSCODER_OPS: [Signature; 2] = [
    Signature::one_way("frame"),
    Signature::fixed("set_ratio", &[TypeTag::Float], TypeTag::Unit),
];

impl Component for Transcoder {
    fn type_name(&self) -> &str {
        "Transcoder"
    }

    fn provided(&self) -> &Interface {
        &TRANSCODER
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        match msg.op.as_str() {
            "frame" => {
                let bytes = msg.value.get("bytes").and_then(Value::as_int).unwrap_or(0);
                let out_bytes = (bytes as f64 * self.ratio).round() as i64;
                self.frames += 1;
                self.bytes_out += out_bytes.max(0) as u64;
                // The frame is ours: re-encode its payload in place.
                let mut v = msg.value;
                v.set("bytes", Value::Int(out_bytes));
                v.set("transcoded", Value::Bool(true));
                ctx.send(
                    "out",
                    Message::event("frame", v).with_size(out_bytes.max(0) as u64),
                );
                Ok(())
            }
            "set_ratio" => {
                let r = msg
                    .value
                    .as_float()
                    .ok_or_else(|| ComponentError::BadPayload("set_ratio needs float".into()))?;
                self.ratio = r.clamp(0.01, 1.0);
                Ok(())
            }
            _ => Err(ComponentError::UnsupportedOperation(msg.op)),
        }
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Transcoder", 1)
            .with_field("ratio", Value::Float(self.ratio))
            .with_field("frames", Value::Int(self.frames as i64))
            .with_field("bytes_out", Value::Int(self.bytes_out as i64))
    }

    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), StateError> {
        self.ratio = snap.require("ratio")?.as_float().unwrap_or(1.0);
        self.frames = snap.require("frames")?.as_int().unwrap_or(0).max(0) as u64;
        self.bytes_out = snap.require("bytes_out")?.as_int().unwrap_or(0).max(0) as u64;
        Ok(())
    }

    fn work_cost(&self, msg: &Message) -> f64 {
        // Transcoding costs what the frame's encoder level costs.
        msg.value
            .get("cost")
            .and_then(Value::as_float)
            .unwrap_or(0.1)
    }
}

/// Terminal sink: counts frames, tracks delivered quality and exposes
/// per-frame latency as a custom metric RAML can see.
///
/// Operations: `frame`, `stats` (request → reply with counters).
#[derive(Debug, Default)]
pub struct MediaSink {
    frames: u64,
    bytes: u64,
    quality_sum: f64,
}

impl MediaSink {
    /// Frames delivered.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

/// The interface every `MediaSink` provides.
static MEDIA_SINK: Interface = Interface::fixed("MediaSink", &MEDIA_SINK_OPS);
static MEDIA_SINK_OPS: [Signature; 2] = [
    Signature::one_way("frame"),
    Signature::fixed("stats", &[], TypeTag::Map),
];

impl Component for MediaSink {
    fn type_name(&self) -> &str {
        "MediaSink"
    }

    fn provided(&self) -> &Interface {
        &MEDIA_SINK
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        match msg.op.as_str() {
            "frame" => {
                self.frames += 1;
                self.bytes += msg
                    .value
                    .get("bytes")
                    .and_then(Value::as_int)
                    .unwrap_or(0)
                    .max(0) as u64;
                let q = msg
                    .value
                    .get("quality")
                    .and_then(Value::as_float)
                    .unwrap_or(0.0);
                self.quality_sum += q;
                let latency_ms = ctx.now().saturating_since(msg.sent_at).as_micros() as f64 / 1e3;
                ctx.metric("frame_latency_ms", latency_ms);
                ctx.metric("delivered_quality", q);
                Ok(())
            }
            "stats" => {
                let mean_quality = if self.frames == 0 {
                    0.0
                } else {
                    self.quality_sum / self.frames as f64
                };
                ctx.reply(Value::map([
                    ("frames", Value::Int(self.frames as i64)),
                    ("bytes", Value::Int(self.bytes as i64)),
                    ("mean_quality", Value::Float(mean_quality)),
                ]));
                Ok(())
            }
            _ => Err(ComponentError::UnsupportedOperation(msg.op)),
        }
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("MediaSink", 1)
            .with_field("frames", Value::Int(self.frames as i64))
            .with_field("bytes", Value::Int(self.bytes as i64))
            .with_field("quality_sum", Value::Float(self.quality_sum))
    }

    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), StateError> {
        self.frames = snap.require("frames")?.as_int().unwrap_or(0).max(0) as u64;
        self.bytes = snap.require("bytes")?.as_int().unwrap_or(0).max(0) as u64;
        self.quality_sum = snap.require("quality_sum")?.as_float().unwrap_or(0.0);
        Ok(())
    }

    fn work_cost(&self, _msg: &Message) -> f64 {
        0.05
    }
}

/// Registers the three telecom components (v1) into a registry.
pub fn register_telecom_components(registry: &mut aas_core::registry::ImplementationRegistry) {
    registry.register("MediaSource", 1, |props| {
        let level = props
            .get("level")
            .and_then(Value::as_int)
            .unwrap_or(i64::MAX);
        Box::new(MediaSource::at_level(level.max(0) as usize))
    });
    registry.register("Transcoder", 1, |_| Box::new(Transcoder::default()));
    registry.register("MediaSink", 1, |_| Box::new(MediaSink::default()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_core::component::Effect;
    use aas_sim::time::SimTime;

    fn ctx() -> CallCtx<'static> {
        CallCtx::new(SimTime::from_millis(100), "test")
    }

    #[test]
    fn source_starts_clock_on_init() {
        let mut s = MediaSource::default();
        let mut c = ctx();
        s.on_message(&mut c, Message::event("init", Value::Null))
            .unwrap();
        let effects = c.into_effects();
        assert!(matches!(effects[0], Effect::SetTimer { tag: 1, .. }));
        // Second init is idempotent.
        let mut c2 = ctx();
        s.on_message(&mut c2, Message::event("init", Value::Null))
            .unwrap();
        assert!(c2.into_effects().is_empty());
    }

    #[test]
    fn source_emits_one_frame_per_session_per_tick() {
        let mut s = MediaSource::default();
        let mut c = ctx();
        s.on_message(&mut c, Message::event("init", Value::Null))
            .unwrap();
        for _ in 0..3 {
            s.on_message(&mut c, Message::event("session_start", Value::Null))
                .unwrap();
        }
        let mut c = ctx();
        s.on_timer(&mut c, 1);
        let effects = c.into_effects();
        let frames = effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { port, message } if port == "out" && message.op == "frame"))
            .count();
        assert_eq!(frames, 3);
        // Clock rescheduled + metric.
        assert!(effects.iter().any(|e| matches!(e, Effect::SetTimer { .. })));
        assert!(effects.iter().any(|e| matches!(e, Effect::Metric { .. })));
    }

    #[test]
    fn source_level_changes_frame_size() {
        let mut s = MediaSource::default();
        let mut c = ctx();
        s.on_message(&mut c, Message::event("init", Value::Null))
            .unwrap();
        s.on_message(&mut c, Message::event("session_start", Value::Null))
            .unwrap();
        let frame_bytes = |s: &mut MediaSource| {
            let mut c = ctx();
            s.on_timer(&mut c, 1);
            c.into_effects()
                .iter()
                .find_map(|e| match e {
                    Effect::Send { message, .. } => {
                        message.value.get("bytes").and_then(Value::as_int)
                    }
                    _ => None,
                })
                .unwrap()
        };
        let hi = frame_bytes(&mut s);
        let mut c = ctx();
        s.on_message(&mut c, Message::event("set_level", Value::Int(0)))
            .unwrap();
        let lo = frame_bytes(&mut s);
        assert!(lo < hi, "audio-only {lo} < 1080p {hi}");
    }

    #[test]
    fn source_session_count_never_negative() {
        let mut s = MediaSource::default();
        let mut c = ctx();
        s.on_message(&mut c, Message::event("session_end", Value::Null))
            .unwrap();
        assert_eq!(s.active_sessions, 0);
    }

    #[test]
    fn transcoder_scales_and_forwards() {
        let mut t = Transcoder::default();
        let mut c = ctx();
        t.on_message(&mut c, Message::event("set_ratio", Value::Float(0.5)))
            .unwrap();
        let payload = |bytes: i64| {
            [
                ("bytes", Value::Int(bytes)),
                ("cost", Value::Float(2.0)),
                ("level", Value::Int(3)),
                ("quality", Value::Float(0.9)),
            ]
        };
        let frame = Message::event("frame", Value::map(payload(1000))).with_size(1000);
        assert_eq!(t.work_cost(&frame), 2.0, "charges the frame's cost");
        t.on_message(&mut c, frame).unwrap();
        // The input's other fields, the new size and the mark.
        let out = Value::map(
            payload(500)
                .into_iter()
                .chain([("transcoded", Value::Bool(true))]),
        );
        assert_eq!(
            c.into_effects(),
            vec![Effect::Send {
                port: "out".into(),
                message: Message::event("frame", out).with_size(500),
            }]
        );
    }

    #[test]
    fn transcoder_ratio_clamps() {
        let mut t = Transcoder::default();
        let mut c = ctx();
        t.on_message(&mut c, Message::event("set_ratio", Value::Float(99.0)))
            .unwrap();
        assert_eq!(t.ratio, 1.0);
        t.on_message(&mut c, Message::event("set_ratio", Value::Float(-1.0)))
            .unwrap();
        assert_eq!(t.ratio, 0.01);
        assert!(t
            .on_message(&mut c, Message::event("set_ratio", Value::Null))
            .is_err());
    }

    #[test]
    fn sink_counts_and_reports() {
        let mut sink = MediaSink::default();
        let mut c = ctx();
        for q in [1.0, 0.5] {
            let mut frame = Message::event(
                "frame",
                Value::map([("bytes", Value::Int(100)), ("quality", Value::Float(q))]),
            );
            frame.sent_at = SimTime::from_millis(90);
            sink.on_message(&mut c, frame).unwrap();
        }
        let effects = c.into_effects();
        // Two frames, each with latency + quality metric.
        let metrics = effects
            .iter()
            .filter(|e| matches!(e, Effect::Metric { .. }))
            .count();
        assert_eq!(metrics, 4);

        let mut c2 = ctx();
        sink.on_message(&mut c2, Message::request("stats", Value::Null))
            .unwrap();
        let reply = c2
            .into_effects()
            .into_iter()
            .find_map(|e| match e {
                Effect::Reply { value } => Some(value),
                _ => None,
            })
            .unwrap();
        assert_eq!(reply.get("frames"), Some(&Value::Int(2)));
        assert_eq!(reply.get("bytes"), Some(&Value::Int(200)));
        assert_eq!(reply.get("mean_quality"), Some(&Value::Float(0.75)));
    }

    #[test]
    fn snapshots_roundtrip_for_all_components() {
        let mut src = MediaSource::at_level(2);
        let mut c = ctx();
        src.on_message(&mut c, Message::event("session_start", Value::Null))
            .unwrap();
        let snap = src.snapshot();
        let mut src2 = MediaSource::default();
        src2.restore(&snap).unwrap();
        assert_eq!(src2.level, 2);
        assert_eq!(src2.active_sessions, 1);

        let t = Transcoder::default();
        let mut t2 = Transcoder::default();
        t2.restore(&t.snapshot()).unwrap();
        assert_eq!(t2.ratio, 1.0);

        let sink = MediaSink::default();
        let mut sink2 = MediaSink::default();
        sink2.restore(&sink.snapshot()).unwrap();
        assert_eq!(sink2.frames, 0);
    }

    #[test]
    fn registry_registration_works() {
        let mut reg = aas_core::registry::ImplementationRegistry::new();
        register_telecom_components(&mut reg);
        assert!(reg.contains("MediaSource", 1));
        assert!(reg.contains("Transcoder", 1));
        assert!(reg.contains("MediaSink", 1));
        let mut props = aas_core::registry::Props::new();
        props.insert("level".into(), Value::Int(1));
        let src = reg.instantiate("MediaSource", 1, &props).unwrap();
        assert_eq!(src.type_name(), "MediaSource");
    }
}
