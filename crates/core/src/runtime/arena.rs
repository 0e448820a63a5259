//! The messages in flight, each stored once.
//!
//! An [`Envelope`] enters the [`Arena`] where it is created — a send
//! through a binding, a reply, an injection — and stays in its slot until
//! it leaves the system: handled, shed, dropped, or lost with its host.
//! What travels through the kernel's event heap, a blocked channel's held
//! queue and the kernel's timers in the meantime is a [`MsgRef`], four
//! bytes. A slot also records *where* its message is (its [`Stage`]), so
//! the live slots, counted by stage, are the in-flight term of message
//! conservation ([`InFlight`]), and a message's one pending kernel timer
//! needs no table entry: the timer's tag is the handle and the stage says
//! what the timer is for.
//!
//! The slots are [`Slots`], which the runtime's own timer table uses as
//! well. Which slot a message gets is deterministic, but handle values
//! are storage addresses and nothing else — they enter no ordering,
//! fingerprint or audit text.

use super::Envelope;
use aas_sim::node::NodeId;
use std::ops::{Index, IndexMut};

/// Handle of a message in flight. Either the index of the arena slot that
/// stores its envelope or — top bit set — a failure-detector heartbeat of
/// the node in the low bits: a heartbeat says nothing else, so it takes
/// no slot and builds no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct MsgRef(u32);

const _: () = assert!(std::mem::size_of::<MsgRef>() == 4);

const HEARTBEAT: u32 = 1 << 31;
/// Set in the tag of a kernel timer that belongs to a stored message; the
/// kernel's own tags count up from zero and never reach it.
const MESSAGE_TIMER: u64 = 1 << 63;

impl MsgRef {
    pub(super) fn heartbeat(node: NodeId) -> MsgRef {
        assert!(node.0 < HEARTBEAT, "node id fits 31 bits");
        MsgRef(HEARTBEAT | node.0)
    }

    /// The emitting node, if this is a heartbeat.
    pub(super) fn as_heartbeat(self) -> Option<NodeId> {
        (self.0 & HEARTBEAT != 0).then_some(NodeId(self.0 & !HEARTBEAT))
    }

    /// The tag of this message's kernel timer.
    pub(super) fn timer_tag(self) -> u64 {
        MESSAGE_TIMER | u64::from(self.0)
    }

    /// The message a kernel timer belongs to, if it belongs to one.
    pub(super) fn from_timer_tag(tag: u64) -> Option<MsgRef> {
        (tag & MESSAGE_TIMER != 0).then_some(MsgRef(tag as u32))
    }
}

/// Where a stored message is. A message outside `Transit` has exactly one
/// kernel timer pending, tagged with its handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Stage {
    /// On a kernel channel: in the event heap, or held by a blocked side.
    Transit,
    /// Its handler job is running on the target's node.
    InService,
    /// Waiting out a connector's retry back-off.
    Retry,
    /// A scheduled injection that is not due yet.
    Inject,
}

/// How many messages the runtime holds at this instant, by where they
/// are: what [`Runtime::in_flight`](super::Runtime::in_flight) reports.
/// Failure-detector heartbeats are not among them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InFlight {
    /// On a kernel channel — sent, and neither delivered nor dropped yet,
    /// whether still travelling or held by a blocked channel.
    pub in_transit_or_held: u64,
    /// Delivered, with the handler job still running on the target's node.
    pub in_service: u64,
    /// Off the channels, waiting for a timer: a retry back-off, or an
    /// injection scheduled with `inject_after`.
    pub parked: u64,
}

impl InFlight {
    fn of(&mut self, stage: Stage) -> &mut u64 {
        match stage {
            Stage::Transit => &mut self.in_transit_or_held,
            Stage::InService => &mut self.in_service,
            Stage::Retry | Stage::Inject => &mut self.parked,
        }
    }
}

/// Slot storage in fixed-size chunks that are never moved or copied, with
/// an intrusive LIFO free list: a freed slot is the next one handed out,
/// and growth costs one chunk, not a doubling.
#[derive(Debug, Clone)]
pub(super) struct Slots<T> {
    chunks: Vec<Box<[Slot<T>]>>,
    /// Head of the free list.
    free: u32,
}

#[derive(Debug, Clone)]
enum Slot<T> {
    Free { next: u32 },
    Full(T),
}

const CHUNK_BITS: u32 = 6;
const CHUNK: u32 = 1 << CHUNK_BITS;
/// End of the free list.
const NIL: u32 = u32::MAX;

impl<T> Slots<T> {
    pub(super) fn new() -> Self {
        Slots {
            chunks: Vec::new(),
            free: NIL,
        }
    }

    fn slot(&self, at: u32) -> &Slot<T> {
        &self.chunks[(at >> CHUNK_BITS) as usize][(at & (CHUNK - 1)) as usize]
    }

    fn slot_mut(&mut self, at: u32) -> &mut Slot<T> {
        &mut self.chunks[(at >> CHUNK_BITS) as usize][(at & (CHUNK - 1)) as usize]
    }

    pub(super) fn insert(&mut self, value: T) -> u32 {
        if self.free == NIL {
            let base =
                u32::try_from(self.chunks.len() * CHUNK as usize).expect("fewer than 2^32 slots");
            let chunk = (1..=CHUNK).map(|i| Slot::Free {
                next: if i == CHUNK { NIL } else { base + i },
            });
            self.chunks.push(chunk.collect());
            self.free = base;
        }
        let at = self.free;
        let slot = self.slot_mut(at);
        let Slot::Free { next } = *slot else {
            unreachable!("the free list links free slots");
        };
        *slot = Slot::Full(value);
        self.free = next;
        at
    }

    pub(super) fn get(&self, at: u32) -> &T {
        match self.slot(at) {
            Slot::Full(value) => value,
            Slot::Free { .. } => panic!("stale handle: slot {at} is free"),
        }
    }

    pub(super) fn get_mut(&mut self, at: u32) -> &mut T {
        match self.slot_mut(at) {
            Slot::Full(value) => value,
            Slot::Free { .. } => panic!("stale handle: slot {at} is free"),
        }
    }

    /// Drops what slot `at` stores, where it lies, and hands the slot to
    /// the next `insert`.
    pub(super) fn free(&mut self, at: u32) {
        let next = self.free;
        let slot = self.slot_mut(at);
        assert!(matches!(slot, Slot::Full(_)), "slot {at} freed twice");
        *slot = Slot::Free { next };
        self.free = at;
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.chunks
            .iter_mut()
            .flat_map(|chunk| chunk.iter_mut())
            .filter_map(|slot| match slot {
                Slot::Full(value) => Some(value),
                Slot::Free { .. } => None,
            })
    }
}

#[derive(Debug, Clone)]
enum Stored {
    /// A job its host's crash cancelled. Its completion timer is still in
    /// the kernel and carries this slot's handle, so the slot stays out of
    /// the free list until that timer has fired.
    Cancelled,
    Live {
        stage: Stage,
        env: Envelope,
    },
}

/// The messages in flight, and how many are at each stage.
#[derive(Debug, Clone)]
pub(super) struct Arena {
    slots: Slots<Stored>,
    live: InFlight,
}

impl Arena {
    pub(super) fn new() -> Self {
        Arena {
            slots: Slots::new(),
            live: InFlight::default(),
        }
    }

    /// Stores `env` at `stage`.
    pub(super) fn insert(&mut self, env: Envelope, stage: Stage) -> MsgRef {
        *self.live.of(stage) += 1;
        let at = self.slots.insert(Stored::Live { stage, env });
        assert!(at < HEARTBEAT, "fewer than 2^31 messages in flight");
        MsgRef(at)
    }

    /// Where `r`'s message is; `None` for a cancelled job's tombstone.
    pub(super) fn stage(&self, r: MsgRef) -> Option<Stage> {
        match self.slots.get(r.0) {
            Stored::Live { stage, .. } => Some(*stage),
            Stored::Cancelled => None,
        }
    }

    pub(super) fn set_stage(&mut self, r: MsgRef, to: Stage) {
        let Stored::Live { stage, .. } = self.slots.get_mut(r.0) else {
            panic!("stale handle: the job was cancelled");
        };
        let from = std::mem::replace(stage, to);
        *self.live.of(from) -= 1;
        *self.live.of(to) += 1;
    }

    /// Releases `r`'s slot: its message has left the system, or its
    /// cancelled job's timer has fired.
    pub(super) fn free(&mut self, r: MsgRef) {
        if let Some(stage) = self.stage(r) {
            *self.live.of(stage) -= 1;
        }
        self.slots.free(r.0);
    }

    /// Cancels every job in service that `lost` picks: its message is
    /// gone now, its slot once the job's timer has fired.
    pub(super) fn cancel_in_service(&mut self, mut lost: impl FnMut(&Envelope) -> bool) {
        for stored in self.slots.iter_mut() {
            if let Stored::Live {
                stage: Stage::InService,
                env,
            } = stored
            {
                if lost(env) {
                    *stored = Stored::Cancelled;
                    self.live.in_service -= 1;
                }
            }
        }
    }

    pub(super) fn in_flight(&self) -> InFlight {
        self.live
    }
}

impl Index<MsgRef> for Arena {
    type Output = Envelope;
    fn index(&self, r: MsgRef) -> &Envelope {
        match self.slots.get(r.0) {
            Stored::Live { env, .. } => env,
            Stored::Cancelled => panic!("stale handle: the job was cancelled"),
        }
    }
}

impl IndexMut<MsgRef> for Arena {
    fn index_mut(&mut self, r: MsgRef) -> &mut Envelope {
        match self.slots.get_mut(r.0) {
            Stored::Live { env, .. } => env,
            Stored::Cancelled => panic!("stale handle: the job was cancelled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_slot_is_the_next_one_out_and_chunks_never_move() {
        let mut slots: Slots<u64> = Slots::new();
        let first: Vec<u32> = (0..CHUNK as u64).map(|v| slots.insert(v)).collect();
        assert_eq!(first, (0..CHUNK).collect::<Vec<_>>());
        let before: *const u64 = slots.get(3);
        // Growth adds a chunk and leaves the first where it was.
        assert_eq!(slots.insert(64), CHUNK);
        assert_eq!(slots.chunks.len(), 2);
        assert!(std::ptr::eq(before, slots.get(3)));
        slots.free(3);
        slots.free(40);
        assert_eq!(slots.insert(100), 40);
        assert_eq!(slots.insert(101), 3);
        assert_eq!((*slots.get(40), *slots.get(3)), (100, 101));
        assert_eq!(slots.iter_mut().count(), CHUNK as usize + 1);
        let copy = slots.clone();
        slots.free(3);
        assert_eq!(*copy.get(3), 101, "a clone shares nothing");
    }

    #[test]
    fn the_two_forms_of_a_handle_do_not_overlap() {
        let beat = MsgRef::heartbeat(NodeId(998));
        assert_eq!(beat.as_heartbeat(), Some(NodeId(998)));
        assert_eq!(MsgRef(998).as_heartbeat(), None);
        let r = MsgRef(7);
        assert_eq!(MsgRef::from_timer_tag(r.timer_tag()), Some(r));
        assert_eq!(
            MsgRef::from_timer_tag(7),
            None,
            "a tag of the runtime's own"
        );
    }
}
