//! Self-healing opens and scrubbing: the recovery surface over the
//! storage layer's quarantine primitives.
//!
//! A standard [`Climber::open`] is strict: the first damaged partition
//! aborts the open with a typed [`OpenError`]. That is the right default
//! for a cold start that can retry from a replica — but a serving node
//! that *is* the replica wants the other trade: open what validates,
//! quarantine what does not, and keep answering queries degraded (with
//! per-shard status, so callers can tell a partial answer from a complete
//! one). [`OpenOptions::policy`] selects that behaviour per call site
//! via [`RecoveryPolicy`], for one index or a shard set alike;
//! [`Climber::scrub`] re-verifies every checksum afterwards, re-admitting
//! partitions whose bytes were restored and quarantining fresh damage.
//!
//! [`Climber::open`]: crate::Climber::open
//! [`Climber::scrub`]: crate::Climber::scrub
//! [`OpenOptions::policy`]: crate::OpenOptions::policy
//! [`OpenError`]: climber_dfs::manifest::OpenError

use climber_dfs::store::PartitionId;

/// How an open treats a directory that fails validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// The first damaged partition (or shard) aborts the open with a
    /// typed error — the behaviour of [`Climber::open`] /
    /// [`Climber::open_rw`].
    ///
    /// [`Climber::open`]: crate::Climber::open
    /// [`Climber::open_rw`]: crate::Climber::open_rw
    #[default]
    Strict,
    /// Damaged partitions are recorded and — by a writable open — moved
    /// into the directory's `QUARANTINE/` subdirectory; the index opens
    /// and serves the partitions that validated, degraded-with-status. On a shard set,
    /// a shard that cannot open at all is left as a dead slot and every
    /// query reports it unhealthy.
    Quarantine,
}

/// What a recovering open ([`RecoveryPolicy::Quarantine`]) had to do.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Partitions quarantined because their committed bytes failed
    /// validation (missing file, size mismatch, checksum mismatch, or a
    /// header this build does not read).
    pub quarantined_partitions: Vec<PartitionId>,
    /// Shards that failed to open wholesale (corrupt manifest/skeleton,
    /// generation drift) and were left as dead slots; empty for a
    /// single-index open.
    pub dead_shards: Vec<usize>,
    /// Partition bytes the open fed into the block cache
    /// from its validation reads (0 without a cache): first-query latency
    /// after this open skips the filesystem for those partitions.
    pub warmed_bytes: u64,
}

impl RecoveryReport {
    /// True when the open needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.quarantined_partitions.is_empty() && self.dead_shards.is_empty()
    }
}

/// What one [`Climber::scrub`](crate::Climber::scrub) pass found and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Manifest partitions whose committed bytes were re-read and
    /// re-checksummed this pass (quarantined ones are counted separately).
    pub partitions_checked: usize,
    /// Of those, how many validated clean.
    pub partitions_ok: usize,
    /// Previously quarantined partitions brought back into service: the
    /// main file matched its manifest entry again (operator restored it),
    /// or the quarantined copy itself validated and was renamed back.
    pub readmitted: Vec<PartitionId>,
    /// Partitions newly quarantined by this pass (fresh damage).
    pub quarantined: Vec<PartitionId>,
    /// Partitions that stayed quarantined: neither the main path nor the
    /// quarantined copy validates, so repair needs an external source.
    pub still_quarantined: Vec<PartitionId>,
}

impl ScrubReport {
    /// True when every manifest partition is serving and clean.
    pub fn is_fully_healthy(&self) -> bool {
        self.quarantined.is_empty() && self.still_quarantined.is_empty()
    }

    /// Folds another shard's report into this one (set-level scrub).
    pub fn absorb(&mut self, other: ScrubReport) {
        self.partitions_checked += other.partitions_checked;
        self.partitions_ok += other.partitions_ok;
        self.readmitted.extend(other.readmitted);
        self.quarantined.extend(other.quarantined);
        self.still_quarantined.extend(other.still_quarantined);
    }
}

/// A backend's health as the serving layer reports it: shard liveness
/// plus partition quarantine counts. Produced by
/// [`SearchBackend::health`](crate::SearchBackend::health), carried over
/// the wire by the serve crate's health endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendHealth {
    /// Shards the backend is composed of (1 for a single index).
    pub shards: u32,
    /// Shards currently dead (failed to open and not yet re-admitted).
    pub dead_shards: u32,
    /// Partitions currently quarantined, summed across live shards.
    pub quarantined_partitions: u64,
}

impl BackendHealth {
    /// A fully healthy single-backend report (the trait default).
    pub fn healthy() -> Self {
        Self {
            shards: 1,
            dead_shards: 0,
            quarantined_partitions: 0,
        }
    }

    /// True when nothing is dead or quarantined.
    pub fn is_healthy(&self) -> bool {
        self.dead_shards == 0 && self.quarantined_partitions == 0
    }

    /// Fixed-width wire encoding (16 bytes, little-endian).
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&self.shards.to_le_bytes());
        out[4..8].copy_from_slice(&self.dead_shards.to_le_bytes());
        out[8..16].copy_from_slice(&self.quarantined_partitions.to_le_bytes());
        out
    }

    /// Decodes [`encode`](Self::encode)'s 16-byte layout.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != 16 {
            return Err(format!("backend health is {} bytes, want 16", bytes.len()));
        }
        Ok(Self {
            shards: u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")),
            dead_shards: u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")),
            quarantined_partitions: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_health_roundtrips_and_classifies() {
        let h = BackendHealth {
            shards: 4,
            dead_shards: 1,
            quarantined_partitions: 3,
        };
        assert_eq!(BackendHealth::decode(&h.encode()).unwrap(), h);
        assert!(!h.is_healthy());
        assert!(BackendHealth::healthy().is_healthy());
        assert!(BackendHealth::decode(&[0u8; 5]).is_err());
    }

    #[test]
    fn scrub_report_absorbs_and_classifies() {
        let mut a = ScrubReport {
            partitions_checked: 3,
            partitions_ok: 3,
            ..ScrubReport::default()
        };
        assert!(a.is_fully_healthy());
        a.absorb(ScrubReport {
            partitions_checked: 2,
            partitions_ok: 1,
            quarantined: vec![7],
            ..ScrubReport::default()
        });
        assert_eq!(a.partitions_checked, 5);
        assert!(!a.is_fully_healthy());
        assert!(RecoveryReport::default().is_clean());
    }
}
