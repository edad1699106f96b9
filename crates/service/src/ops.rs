//! The typed operation stream a [`crate::FusionService`] ingests, plus
//! helpers for deriving streams from snapshots (and scrambling them, for the
//! out-of-order convergence tests and `exp_service`).

use datamodel::{AttrId, ObjectId, Snapshot, SourceId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one [`Operation`] does to the service's ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `source` claims `value` for the data item `(object, attr)`,
    /// replacing any previous claim by the same source. A number whose value
    /// or granularity is NaN or infinite is rejected.
    UpsertClaim {
        /// The claiming source.
        source: SourceId,
        /// Object of the claimed item.
        object: ObjectId,
        /// Attribute of the claimed item.
        attr: AttrId,
        /// The claimed (normalized) value.
        value: Value,
    },
    /// `source` withdraws its claim for `(object, attr)`, if any.
    RetractClaim {
        /// The retracting source.
        source: SourceId,
        /// Object of the retracted item.
        object: ObjectId,
        /// Attribute of the retracted item.
        attr: AttrId,
    },
    /// `source` goes offline: its claims stay in the ledger but are excluded
    /// from sealed snapshots until it rejoins.
    SourceLeave {
        /// The leaving source.
        source: SourceId,
    },
    /// `source` comes back online; its ledgered claims reappear in the next
    /// sealed snapshot.
    SourceRejoin {
        /// The rejoining source.
        source: SourceId,
    },
    /// Close the books on `day`: materialize the ledger, advance the delta
    /// engine, re-fuse, and publish a new [`crate::ServedState`].
    SealDay {
        /// The day index to seal.
        day: u32,
    },
}

/// One ingest operation: a producer-assigned sequence number plus its kind.
///
/// The sequence number is the idempotency key: per claim key `(source,
/// item)` — and per source for leave/rejoin — the highest `seq` wins
/// regardless of arrival order, and an exact replay is a no-op. `SealDay`
/// is keyed by its day instead (sealing an already-sealed day is a no-op).
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Producer-assigned sequence number (total order at the producer).
    pub seq: u64,
    /// What the operation does.
    pub kind: OpKind,
}

impl Operation {
    /// An [`OpKind::UpsertClaim`] operation.
    pub fn upsert(seq: u64, source: SourceId, object: ObjectId, attr: AttrId, value: Value) -> Self {
        Self {
            seq,
            kind: OpKind::UpsertClaim {
                source,
                object,
                attr,
                value,
            },
        }
    }

    /// An [`OpKind::RetractClaim`] operation.
    pub fn retract(seq: u64, source: SourceId, object: ObjectId, attr: AttrId) -> Self {
        Self {
            seq,
            kind: OpKind::RetractClaim {
                source,
                object,
                attr,
            },
        }
    }

    /// An [`OpKind::SourceLeave`] operation.
    pub fn leave(seq: u64, source: SourceId) -> Self {
        Self {
            seq,
            kind: OpKind::SourceLeave { source },
        }
    }

    /// An [`OpKind::SourceRejoin`] operation.
    pub fn rejoin(seq: u64, source: SourceId) -> Self {
        Self {
            seq,
            kind: OpKind::SourceRejoin { source },
        }
    }

    /// An [`OpKind::SealDay`] operation.
    pub fn seal(seq: u64, day: u32) -> Self {
        Self {
            seq,
            kind: OpKind::SealDay { day },
        }
    }
}

/// One upsert per observation of `snapshot`, sequence numbers starting at
/// `first_seq` — the operation form of a full day. Does **not** append the
/// closing [`Operation::seal`]; the caller decides when to seal.
pub fn day_ops(snapshot: &Snapshot, first_seq: u64) -> Vec<Operation> {
    let mut seq = first_seq;
    let mut ops = Vec::with_capacity(snapshot.num_observations());
    for (item, obs) in snapshot.items() {
        for o in obs {
            ops.push(Operation::upsert(
                seq,
                o.source,
                item.object,
                item.attr,
                o.value.clone(),
            ));
            seq += 1;
        }
    }
    ops
}

/// The operations that move a ledger holding exactly `prev`'s claims to
/// `next`'s: upserts for new or changed claims, retractions for withdrawn
/// ones. Sequence numbers start at `first_seq`; no seal is appended.
pub fn diff_ops(prev: &Snapshot, next: &Snapshot, first_seq: u64) -> Vec<Operation> {
    let mut seq = first_seq;
    let mut ops = Vec::new();
    for (item, obs) in next.items() {
        for o in obs {
            if prev.value_of(o.source, *item) != Some(&o.value) {
                ops.push(Operation::upsert(
                    seq,
                    o.source,
                    item.object,
                    item.attr,
                    o.value.clone(),
                ));
                seq += 1;
            }
        }
    }
    for (item, obs) in prev.items() {
        for o in obs {
            if next.value_of(o.source, *item).is_none() {
                ops.push(Operation::retract(seq, o.source, item.object, item.attr));
                seq += 1;
            }
        }
    }
    ops
}

/// Deterministic Fisher–Yates shuffle (the offline `rand` stub has no
/// `SliceRandom`). Same seed ⇒ same permutation.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..100).collect();
        let mut b: Vec<usize> = (0..100).collect();
        shuffle(&mut a, 42);
        shuffle(&mut b, 42);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());

        let mut c: Vec<usize> = (0..100).collect();
        shuffle(&mut c, 43);
        assert_ne!(a, c);
    }
}
