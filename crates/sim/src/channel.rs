//! FIFO communication channels with blocking support: ids, statistics
//! and drop reasons.
//!
//! Channels are the unit the reconfiguration engine manipulates: the paper
//! (after Polylith) requires "blocking communication channels (to manage the
//! messages in transit) while the module context is encoded". A blocked
//! channel *holds* deliveries in order instead of handing them to the
//! application; unblocking releases them without loss, duplication or
//! reordering. The state and transitions live in [`crate::shard`]: a
//! channel is a send side on its source's core and a delivery side on its
//! destination's.

use crate::time::SimTime;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Identifier of a kernel channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub u64);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Why a send or delivery failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// No live route between the channel's endpoints at send time.
    Unreachable,
    /// The destination node was down at delivery time.
    DestinationDown,
    /// The channel had been closed before delivery.
    ChannelClosed,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Unreachable => "no live route at send time",
            DropReason::DestinationDown => "destination node down at delivery",
            DropReason::ChannelClosed => "channel closed before delivery",
        };
        f.write_str(s)
    }
}

/// A message held by a blocked channel, awaiting release.
#[derive(Debug, Clone)]
pub(crate) struct HeldMessage<M> {
    pub msg: M,
    pub size: u64,
    pub sent_at: SimTime,
}

/// Per-channel delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Messages accepted by `send`.
    pub sent: u64,
    /// Messages handed to the application.
    pub delivered: u64,
    /// Messages dropped (any [`DropReason`]).
    pub dropped: u64,
    /// Messages currently held because the channel is blocked.
    pub held: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_messages_are_lowercase_prose() {
        for r in [
            DropReason::Unreachable,
            DropReason::DestinationDown,
            DropReason::ChannelClosed,
        ] {
            let s = r.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }
}
