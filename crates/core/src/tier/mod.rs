//! Tiered residency for cached intermediates.
//!
//! The recycle pool stores every intermediate raw until memory pressure
//! turns admission into eviction. This module turns that binary choice
//! into a demotion ladder:
//!
//! ```text
//! hot raw  →  compressed (in place)  →  spilled (block file)  →  gone
//! ```
//!
//! - [`codec`] holds the lightweight columnar codecs (RLE, dictionary,
//!   frame-of-reference, verbatim fallback) and the [`codec::CompressedBat`]
//!   blob format shared by both cold tiers.
//! - [`spill`] is the append-only block file plus in-memory index that
//!   backs the coldest tier.
//! - [`TierState`] is the per-entry residency marker carried by
//!   `PoolEntry`; the pool books each entry's bytes under its tier
//!   (`pool::Charge::of`), so a shard's resident bytes are its raw plus
//!   compressed charge (spilled bytes are tracked separately and do not
//!   count against the memory cap).
//!
//! The background collector drives demotions generationally: minor
//! rounds compress nursery-cold entries one rung before the evict path
//! would fire, and only the coldest compressed entries move to disk.
//! A hit on a demoted entry decompresses/rehydrates *outside* any shard
//! lock, re-promotes the entry to raw, and records the paid cost in the
//! recycler stats — so the ladder trades a bounded CPU/IO cost for
//! evictions that would otherwise forfeit the intermediate entirely.

pub mod codec;
pub mod spill;

use std::sync::Arc;

pub use codec::{Codec, CodecError, CompressedBat};
pub use spill::{SpillFile, SpillTicket};

/// Residency tier of one pool entry.
///
/// The tier decides where the entry's payload lives and what
/// `PoolEntry::bytes` means: the bytes *currently charged* against the
/// pool's memory cap. Raw entries charge their resident column bytes,
/// compressed entries charge the blob size, and spilled entries charge
/// zero (their bytes are accounted in the spill file's own budget).
#[derive(Debug, Clone)]
pub enum TierState {
    /// Hot: the entry's `result` holds the raw BAT, reusable without any
    /// promotion cost.
    Raw,
    /// Cold: the payload is a compressed blob held in memory; `result`
    /// is `Value::Nil`. A hit decompresses and promotes back to raw.
    Compressed(Arc<CompressedBat>),
    /// Coldest: the blob lives in the spill block file; only the claim
    /// ticket stays in memory. A hit reads the record back, decodes it,
    /// and promotes to raw.
    Spilled(SpillTicket),
}

impl TierState {
    /// True when the entry is resident raw.
    pub fn is_raw(&self) -> bool {
        matches!(self, TierState::Raw)
    }

    /// True when the payload is in the in-memory compressed tier.
    pub fn is_compressed(&self) -> bool {
        matches!(self, TierState::Compressed(_))
    }

    /// True when the payload is on disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self, TierState::Spilled(_))
    }

    /// Short label for diagnostics and per-tier breakdowns.
    pub fn label(&self) -> &'static str {
        match self {
            TierState::Raw => "raw",
            TierState::Compressed(_) => "compressed",
            TierState::Spilled(_) => "spilled",
        }
    }
}
