//! The [`ReplacementPolicy`] trait and its shared vocabulary.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Per-access metadata a policy may use for its replacement decision.
///
/// `request_blocks` is the size of the *original* client request the block
/// belonged to — the `S_i` term of GDSF. `is_write` feeds WLRU's clean-first
/// victim choice; the other policies ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessMeta {
    /// True if the access modifies the block.
    pub is_write: bool,
    /// Size (in blocks) of the client request this access belongs to.
    pub request_blocks: u64,
}

impl AccessMeta {
    /// Metadata for a read access belonging to a request of `request_blocks`.
    pub const fn read(request_blocks: u64) -> Self {
        AccessMeta {
            is_write: false,
            request_blocks,
        }
    }

    /// Metadata for a write access belonging to a request of `request_blocks`.
    pub const fn write(request_blocks: u64) -> Self {
        AccessMeta {
            is_write: true,
            request_blocks,
        }
    }
}

/// Result of recording one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was already resident.
    Hit,
    /// The block was inserted; the cache still had room.
    Inserted,
    /// The block was inserted and the carried block was pushed out to make
    /// room.
    InsertedWithEviction(u64),
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// True if the access caused a replacement.
    pub const fn is_replacement(self) -> bool {
        matches!(self, AccessOutcome::InsertedWithEviction(_))
    }

    /// The block this access evicted, if any.
    pub const fn evicted(self) -> Option<u64> {
        match self {
            AccessOutcome::InsertedWithEviction(block) => Some(block),
            _ => None,
        }
    }

    /// The outcome of an insertion that pushed out `evicted`, if anything.
    pub(crate) const fn inserted(evicted: Option<u64>) -> Self {
        match evicted {
            Some(block) => AccessOutcome::InsertedWithEviction(block),
            None => AccessOutcome::Inserted,
        }
    }
}

/// A block-granular cache replacement policy.
///
/// A policy decides residency only: *which* blocks should be resident in
/// the cache partition, and which block to push out when it is full. It
/// performs no I/O and keeps no record the array reads; the array's
/// mapping cache holds each cached copy's slot and dirty bit. Capacities are
/// expressed in blocks and fixed at construction: emptying or resizing a
/// policy means building a fresh one with [`PolicyKind::build`].
pub trait ReplacementPolicy: fmt::Debug {
    /// Records an access to `block`, inserting it (and possibly evicting a
    /// victim) if it is not resident.
    fn access(&mut self, block: u64, meta: AccessMeta) -> AccessOutcome;
}

/// Selector for the five policies of the paper, used by experiment configs
/// and the command-line harness.
///
/// Serializes as its display name (`"ARC"`, `"WLRU0.5"`, ...) so scenario
/// files can name policies the way the paper's tables do; parsing accepts
/// the same spellings via [`FromStr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Least Recently Used.
    Lru,
    /// Least Frequently Used with Dynamic Aging.
    Lfuda,
    /// Greedy-Dual-Size with Frequency.
    Gdsf,
    /// Adaptive Replacement Cache.
    Arc,
    /// Weighted LRU with scan-fraction `w` (the paper uses 0.5).
    Wlru(f64),
}

impl PolicyKind {
    /// All policies evaluated by the paper's Tables 2 and 3, in table order.
    pub fn paper_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::Lfuda,
            PolicyKind::Gdsf,
            PolicyKind::Arc,
            PolicyKind::Wlru(0.5),
        ]
    }

    /// Instantiates the policy with the given capacity (in blocks).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn build(self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(crate::lru::LruPolicy::new(capacity)),
            PolicyKind::Lfuda => Box::new(crate::keyed::LfudaPolicy::new(capacity)),
            PolicyKind::Gdsf => Box::new(crate::keyed::GdsfPolicy::new(capacity)),
            PolicyKind::Arc => Box::new(crate::arc::ArcPolicy::new(capacity)),
            PolicyKind::Wlru(w) => Box::new(crate::lru::WlruPolicy::new(capacity, w)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Lru => write!(f, "LRU"),
            PolicyKind::Lfuda => write!(f, "LFUDA"),
            PolicyKind::Gdsf => write!(f, "GDSF"),
            PolicyKind::Arc => write!(f, "ARC"),
            PolicyKind::Wlru(w) => write!(f, "WLRU{w}"),
        }
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "lfuda" => Ok(PolicyKind::Lfuda),
            "gdsf" => Ok(PolicyKind::Gdsf),
            "arc" => Ok(PolicyKind::Arc),
            _ => {
                if let Some(w) = lower.strip_prefix("wlru") {
                    let w = if w.is_empty() {
                        0.5
                    } else {
                        w.parse::<f64>()
                            .map_err(|e| format!("invalid WLRU weight: {e}"))?
                    };
                    if !(0.0..=1.0).contains(&w) {
                        return Err(format!("WLRU weight must be in [0,1], got {w}"));
                    }
                    Ok(PolicyKind::Wlru(w))
                } else {
                    Err(format!(
                        "unknown policy '{s}' (expected lru, lfuda, gdsf, arc or wlru<w>)"
                    ))
                }
            }
        }
    }
}

impl Serialize for PolicyKind {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for PolicyKind {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("policy name", value))?;
        s.parse().map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Hit.is_replacement());
        assert_eq!(AccessOutcome::Hit.evicted(), None);
        let o = AccessOutcome::InsertedWithEviction(7);
        assert!(o.is_replacement());
        assert_eq!(o.evicted(), Some(7));
        assert!(!AccessOutcome::Inserted.is_hit());
    }

    #[test]
    fn inserted_outcome_carries_the_victim() {
        assert_eq!(AccessOutcome::inserted(None), AccessOutcome::Inserted);
        let o = AccessOutcome::inserted(Some(9));
        assert_eq!(o, AccessOutcome::InsertedWithEviction(9));
        assert_eq!(o.evicted(), Some(9));
    }

    #[test]
    fn only_wlru_reads_the_write_flag() {
        // The same blocks, once with every access to a multiple of 5 a
        // write and once read-only: every policy but WLRU decides alike
        // both times, while WLRU spares written blocks that recency alone
        // would evict.
        let stream: Vec<(u64, bool)> = (0..200u64)
            .map(|i| (i * 7 + i / 5) % 13)
            .map(|b| (b, b % 5 == 0))
            .collect();
        for kind in PolicyKind::paper_set() {
            let run = |writes: bool| {
                let mut p = kind.build(4);
                let meta = |w: bool| AccessMeta {
                    is_write: w && writes,
                    request_blocks: 1,
                };
                stream
                    .iter()
                    .map(|&(b, w)| p.access(b, meta(w)))
                    .collect::<Vec<_>>()
            };
            let wlru = matches!(kind, PolicyKind::Wlru(_));
            assert_eq!(run(true) == run(false), !wlru, "{kind}");
        }
    }

    #[test]
    fn policy_kind_parsing() {
        assert_eq!("lru".parse::<PolicyKind>().unwrap(), PolicyKind::Lru);
        assert_eq!("ARC".parse::<PolicyKind>().unwrap(), PolicyKind::Arc);
        assert_eq!(
            "wlru0.5".parse::<PolicyKind>().unwrap(),
            PolicyKind::Wlru(0.5)
        );
        assert_eq!("wlru".parse::<PolicyKind>().unwrap(), PolicyKind::Wlru(0.5));
        assert!("wlru1.5".parse::<PolicyKind>().is_err());
        assert!("clock".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn policy_kind_display_round_trip() {
        for kind in PolicyKind::paper_set() {
            let shown = kind.to_string();
            let parsed: PolicyKind = shown.parse().unwrap();
            assert_eq!(parsed, kind, "{shown} should parse back to {kind:?}");
        }
    }

    #[test]
    fn policy_serde_uses_display_names() {
        for kind in PolicyKind::paper_set() {
            let v = Serialize::serialize(&kind);
            assert_eq!(v, serde::Value::Str(kind.to_string()));
            let back: PolicyKind = Deserialize::deserialize(&v).unwrap();
            assert_eq!(back, kind);
        }
        assert!(PolicyKind::deserialize(&serde::Value::Bool(true)).is_err());
    }

    #[test]
    fn paper_set_has_five_policies() {
        assert_eq!(PolicyKind::paper_set().len(), 5);
    }

    #[test]
    fn build_produces_working_policies() {
        // A fresh policy holds exactly `capacity` blocks: four distinct
        // blocks fit, each is then a hit, and a fifth evicts one of them.
        let meta = AccessMeta::read(1);
        for kind in PolicyKind::paper_set() {
            let mut p = kind.build(4);
            for b in 1..=4 {
                assert_eq!(p.access(b, meta), AccessOutcome::Inserted, "{kind}");
            }
            for b in 1..=4 {
                assert!(p.access(b, meta).is_hit(), "{kind} should hit block {b}");
            }
            let victim = p.access(5, meta).evicted();
            assert!(matches!(victim, Some(1..=4)), "{kind} evicted {victim:?}");
        }
    }

    #[test]
    fn access_meta_constructors() {
        assert!(AccessMeta::write(4).is_write);
        assert!(!AccessMeta::read(4).is_write);
        assert_eq!(AccessMeta::read(4).request_blocks, 4);
    }
}
