//! The deferred-expansion activation queue.
//!
//! An `expand` accepted while an archive reshape is in flight *queues*
//! instead of being refused (serialized mdadm-style grows). This type holds
//! the queue, the activation records the simulation loop drains, and the
//! eligibility logic; [`CraidArray`](super::CraidArray) decides which
//! reshape blocks activation and performs the commit.

use std::collections::VecDeque;

use craid_simkit::SimTime;

use super::ActivatedExpansion;
use crate::config::ActivationPolicy;

/// Queued deferred expansions (by disk count added) plus the activation
/// records the simulation driver drains via
/// [`StorageArray::take_activations`](super::StorageArray::take_activations).
#[derive(Debug, Default)]
pub(super) struct ActivationQueue {
    /// Expansions accepted while a reshape was in flight, in arrival order;
    /// each activates when the blocking reshape drains — and, under
    /// [`ActivationPolicy::WaitForRepair`], only once the array is healthy.
    deferred: VecDeque<usize>,
    /// Activations since the driver last drained them.
    activations: Vec<ActivatedExpansion>,
}

impl ActivationQueue {
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Queues an expansion of `added_disks` behind the in-flight reshape.
    pub(super) fn defer(&mut self, added_disks: usize) {
        self.deferred.push_back(added_disks);
    }

    /// Number of expansions still awaiting activation.
    pub(super) fn len(&self) -> usize {
        self.deferred.len()
    }

    /// Disks every queued expansion will add once it activates — the
    /// projected-geometry term expansion validation checks, so a deferred
    /// expansion can never fail at activation time.
    pub(super) fn pending_disks(&self) -> usize {
        self.deferred.iter().sum()
    }

    /// Pops the next queued expansion if nothing holds it: `blocked` folds
    /// the caller's preconditions (a reshape still in flight; wait-for-repair
    /// on a degraded array). When eligible, the model checker may still hold
    /// it for one more pump
    /// ([`DecisionPoint::ActivationTiming`](crate::choice::DecisionPoint)
    /// branch 1) — the window a real engine thread would leave between
    /// noticing the drain and committing the queued expansion. The caller
    /// commits the layout and then calls [`ActivationQueue::record`].
    pub(super) fn pop_eligible(&mut self, blocked: bool) -> Option<usize> {
        if blocked || self.deferred.is_empty() {
            return None;
        }
        if crate::choice::choose(crate::choice::DecisionPoint::ActivationTiming, 2) == 1 {
            return None;
        }
        self.deferred.pop_front()
    }

    /// Records an activation the caller just committed, for the driver to
    /// drain and forward to
    /// [`Observer::on_deferred_activation`](crate::observer::Observer::on_deferred_activation).
    pub(super) fn record(&mut self, at: SimTime, added_disks: usize) {
        self.activations
            .push(ActivatedExpansion { at, added_disks });
    }

    /// Drains the activation records accumulated since the last call.
    pub(super) fn take_activations(&mut self) -> Vec<ActivatedExpansion> {
        std::mem::take(&mut self.activations)
    }

    /// True when the end-of-trace drain may treat the queue as settled:
    /// empty, or held by wait-for-repair on a degraded array — only a
    /// `disk-repair` event can unblock that, so the drain must not spin on
    /// it.
    pub(super) fn idle_under(&self, policy: ActivationPolicy, degraded: bool) -> bool {
        self.deferred.is_empty() || (policy == ActivationPolicy::WaitForRepair && degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defer_pop_record_round_trip() {
        let mut q = ActivationQueue::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.pending_disks(), 0);
        q.defer(4);
        q.defer(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pending_disks(), 6);
        // Blocked: nothing pops, the queue is untouched.
        assert_eq!(q.pop_eligible(true), None);
        assert_eq!(q.len(), 2);
        // Unblocked: FIFO order.
        assert_eq!(q.pop_eligible(false), Some(4));
        q.record(SimTime::from_secs(7.0), 4);
        assert_eq!(q.pop_eligible(false), Some(2));
        q.record(SimTime::from_secs(7.0), 2);
        assert_eq!(q.pop_eligible(false), None);
        let drained = q.take_activations();
        assert_eq!(
            drained.iter().map(|a| a.added_disks).collect::<Vec<_>>(),
            vec![4, 2]
        );
        assert!(q.take_activations().is_empty(), "drain is destructive");
    }

    #[test]
    fn idle_under_blocks_only_wait_for_repair_on_degraded() {
        let mut q = ActivationQueue::new();
        assert!(q.idle_under(ActivationPolicy::Immediate, false));
        q.defer(2);
        assert!(!q.idle_under(ActivationPolicy::Immediate, false));
        assert!(!q.idle_under(ActivationPolicy::Immediate, true));
        assert!(!q.idle_under(ActivationPolicy::WaitForRepair, false));
        assert!(q.idle_under(ActivationPolicy::WaitForRepair, true));
    }
}
