//! The flat compressed-sparse-row (CSR) transition arena underlying [`Mdp`]:
//! its shared index arrays ([`CsrLayout`]) and its streaming builder
//! ([`CsrMdpBuilder`]).
//!
//! Every layer of the solver stack reads the same three index arrays:
//!
//! * `row_ptr[s] .. row_ptr[s + 1]` — the state-action *pairs* of state `s`,
//! * `action_ptr[pair] .. action_ptr[pair + 1]` — the transitions of a pair,
//! * `col[k]` / `prob[k]` — successor state and probability of transition `k`.
//!
//! The index arrays live in a shared [`CsrLayout`] (behind an [`Arc`]) so that
//! every `(p, γ)` instantiation of a parametric family reuses one skeleton,
//! and so that strategy-induced Markov chains can be extracted by copying
//! already-sorted row slices with no per-row staging or re-sorting (the
//! chain constructor still validates the copied arrays in one pass).
//! Rewards are per state-action pair, indexed by the same pair offsets
//! `action_ptr` is. Actions are numbered, not named: an action is its
//! ordinal within its state.

use crate::{Mdp, MdpError, PROBABILITY_TOLERANCE};
use std::ops::Range;
use std::sync::Arc;

/// Largest index or entry count the compact (`u32`) CSR arena can represent.
pub const COMPACT_ARENA_LIMIT: usize = u32::MAX as usize;

/// Checked `usize` → `u32` conversion for the compact arena build paths.
///
/// # Errors
///
/// Returns [`MdpError::IndexOverflow`] if `value` exceeds
/// [`COMPACT_ARENA_LIMIT`].
pub fn compact_index(value: usize) -> Result<u32, MdpError> {
    u32::try_from(value).map_err(|_| MdpError::IndexOverflow {
        value,
        limit: COMPACT_ARENA_LIMIT,
    })
}

/// The index arrays of the CSR transition arena, shared between every MDP
/// instantiated over the same skeleton.
///
/// All three arrays store compact `u32` entries: the selfish-mining arenas
/// this workspace targets stay well under `u32::MAX` states and transitions
/// (a d=4, f=3 topology has millions, not billions), and halving the index
/// width halves the memory traffic of every solver sweep — the sweeps are
/// memory-bound, so this is a direct throughput win. Build paths convert
/// their `usize` indices through [`compact_index`] and fail with
/// [`MdpError::IndexOverflow`] rather than wrapping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CsrLayout {
    /// State → state-action-pair range; length `num_states + 1`.
    row_ptr: Vec<u32>,
    /// Pair → transition range; length `num_pairs + 1`.
    action_ptr: Vec<u32>,
    /// Successor state per transition, sorted within each pair.
    col: Vec<u32>,
}

impl CsrLayout {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// Total number of state-action pairs.
    pub fn num_pairs(&self) -> usize {
        self.action_ptr.len().saturating_sub(1)
    }

    /// Total number of transitions (successor entries over all pairs).
    pub fn num_transitions(&self) -> usize {
        self.col.len()
    }

    /// The state → pair-range pointer array (length `num_states + 1`).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The pair → transition-range pointer array (length `num_pairs + 1`).
    pub fn action_ptr(&self) -> &[u32] {
        &self.action_ptr
    }

    /// Successor state of every transition (compact `u32` indices), aligned
    /// with the probability buffer.
    pub fn col(&self) -> &[u32] {
        &self.col
    }

    /// Bytes resident in the three index arrays (capacity not counted): the
    /// structural footprint of the arena, reported by the memory benches.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * (self.row_ptr.len() + self.action_ptr.len() + self.col.len())
    }

    /// Number of actions available in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn num_actions(&self, state: usize) -> usize {
        (self.row_ptr[state + 1] - self.row_ptr[state]) as usize
    }

    /// The arena index of the `action`-th pair of `state`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn pair_index(&self, state: usize, action: usize) -> usize {
        assert!(
            action < self.num_actions(state),
            "action {action} out of bounds for state {state} ({} available)",
            self.num_actions(state)
        );
        self.row_ptr[state] as usize + action
    }

    /// The pair range of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn pair_range(&self, state: usize) -> Range<usize> {
        self.row_ptr[state] as usize..self.row_ptr[state + 1] as usize
    }

    /// The transition range of a pair.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of bounds.
    pub fn transition_range(&self, pair: usize) -> Range<usize> {
        self.action_ptr[pair] as usize..self.action_ptr[pair + 1] as usize
    }

    /// Assembles a layout directly from its three index arrays, validating the
    /// CSR invariants: both pointer arrays must start at 0, be monotone and
    /// end at the length of the array they index, and every successor in `col`
    /// must be a valid state.
    ///
    /// This is the construction path used by builders that assemble the index
    /// arrays themselves (e.g. the parametric selfish-mining arena, which
    /// shares one layout across every `(p, γ)` instantiation). Such builders
    /// push compact entries as they go ([`compact_index`]), so no `usize`
    /// copy of the arena is ever held.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidState`] for an out-of-range successor and
    /// [`MdpError::InvariantViolation`] (with a description) for malformed
    /// pointer arrays.
    pub fn from_raw_parts(
        row_ptr: Vec<u32>,
        action_ptr: Vec<u32>,
        col: Vec<u32>,
    ) -> Result<CsrLayout, MdpError> {
        let shape_error = |detail: String| MdpError::InvariantViolation { detail };
        if row_ptr.first() != Some(&0) || action_ptr.first() != Some(&0) {
            return Err(shape_error(
                "CSR pointer arrays must be non-empty and start at 0".to_string(),
            ));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) || action_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(shape_error(
                "CSR pointer arrays must be monotonically non-decreasing".to_string(),
            ));
        }
        let num_pairs = action_ptr.len() - 1;
        if *row_ptr.last().expect("checked non-empty") as usize != num_pairs {
            return Err(shape_error(format!(
                "row_ptr ends at {} but the arena has {num_pairs} pairs",
                row_ptr.last().expect("checked non-empty")
            )));
        }
        if *action_ptr.last().expect("checked non-empty") as usize != col.len() {
            return Err(shape_error(format!(
                "action_ptr ends at {} but the arena has {} transitions",
                action_ptr.last().expect("checked non-empty"),
                col.len()
            )));
        }
        let num_states = row_ptr.len() - 1;
        if let Some(&target) = col.iter().find(|&&t| t as usize >= num_states) {
            return Err(MdpError::InvalidState {
                state: target as usize,
                num_states,
            });
        }
        Ok(CsrLayout {
            row_ptr,
            action_ptr,
            col,
        })
    }
}

/// Streaming builder for the CSR arena: states are appended in index order
/// ([`CsrMdpBuilder::begin_state`]) and actions are appended to the *current*
/// state, which is exactly the order a breadth-first model exploration
/// discovers them in. The first state begun, state 0, is the start state.
/// Transitions may reference states that have not been begun yet (forward
/// edges); target bounds are checked in [`CsrMdpBuilder::finish`].
///
/// # Example
///
/// ```
/// use sm_mdp::CsrMdpBuilder;
///
/// # fn main() -> Result<(), sm_mdp::MdpError> {
/// let mut b = CsrMdpBuilder::new();
/// b.begin_state(); // state 0, the start state
/// b.add_action(&[(1, 1.0)])?; // action 0: forward edge to state 1
/// b.begin_state(); // state 1
/// b.add_action(&[(1, 0.5), (0, 0.5)])?;
/// let mdp = b.finish()?;
/// assert_eq!(mdp.num_states(), 2);
/// assert_eq!(mdp.successors(1, 0), (&[0u32, 1][..], &[0.5f64, 0.5][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrMdpBuilder {
    row_ptr: Vec<u32>,
    action_ptr: Vec<u32>,
    col: Vec<u32>,
    prob: Vec<f64>,
    states: usize,
    /// Scratch buffer reused across `add_action` calls for sort-and-merge.
    scratch: Vec<(u32, f64)>,
}

impl CsrMdpBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CsrMdpBuilder::with_capacity(0, 0, 0)
    }

    /// Creates a builder with pre-reserved capacity for roughly the given
    /// numbers of states, state-action pairs and transitions.
    pub fn with_capacity(states: usize, pairs: usize, transitions: usize) -> Self {
        let mut builder = CsrMdpBuilder {
            row_ptr: Vec::with_capacity(states + 1),
            action_ptr: Vec::with_capacity(pairs + 1),
            col: Vec::with_capacity(transitions),
            prob: Vec::with_capacity(transitions),
            states: 0,
            scratch: Vec::new(),
        };
        builder.row_ptr.push(0);
        builder.action_ptr.push(0);
        builder
    }

    /// Number of states begun so far.
    pub fn num_states(&self) -> usize {
        self.states
    }

    /// Total number of state-action pairs appended so far.
    pub fn num_pairs(&self) -> usize {
        self.action_ptr.len() - 1
    }

    /// Total number of transitions appended so far.
    pub fn num_transitions(&self) -> usize {
        self.col.len()
    }

    /// Opens the next state and returns its index. Subsequent
    /// [`CsrMdpBuilder::add_action`] calls append to this state.
    pub fn begin_state(&mut self) -> usize {
        // The pair count always fits u32: every pair goes through
        // `add_action`, which checks the count before appending.
        let pairs = self.num_pairs() as u32;
        if self.states > 0 {
            // Close the previous state's pair range.
            let last = self.row_ptr.len() - 1;
            self.row_ptr[last] = pairs;
        }
        self.row_ptr.push(pairs);
        self.states += 1;
        self.states - 1
    }

    /// Appends an action to the current state with the given successor
    /// distribution (duplicate targets are summed, zero-probability entries
    /// dropped, successors sorted). Returns the action's index within the
    /// state.
    ///
    /// Targets may reference states that do not exist *yet*; bounds are
    /// enforced by [`CsrMdpBuilder::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::NoActions`]-style [`MdpError::InvalidState`] if no
    /// state has been begun, [`MdpError::InvalidDistribution`] if the
    /// probabilities are invalid or do not sum to 1, and
    /// [`MdpError::IndexOverflow`] if a target, the transition count or the
    /// pair count no longer fits the compact `u32` arena.
    pub fn add_action(&mut self, transitions: &[(usize, f64)]) -> Result<usize, MdpError> {
        if self.states == 0 {
            return Err(MdpError::InvalidState {
                state: 0,
                num_states: 0,
            });
        }
        let state = self.states - 1;
        let action = self.num_pairs() - self.row_ptr[state] as usize;
        let mut sum = 0.0;
        for &(_, p) in transitions {
            if !p.is_finite() || p < 0.0 {
                return Err(MdpError::InvalidDistribution {
                    state,
                    action,
                    sum: p,
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > PROBABILITY_TOLERANCE {
            return Err(MdpError::InvalidDistribution { state, action, sum });
        }
        // Keep the running pair and transition counts inside the compact
        // range *before* appending, so a failed call leaves the builder
        // unchanged.
        compact_index(self.num_pairs() + 1)?;
        compact_index(self.col.len() + transitions.len())?;

        // Sort-and-merge into the arena, one entry per distinct successor.
        self.scratch.clear();
        for &(target, p) in transitions {
            self.scratch.push((compact_index(target)?, p));
        }
        self.scratch.sort_unstable_by_key(|&(t, _)| t);
        let action_start = self.col.len();
        for &(target, p) in &self.scratch {
            if p == 0.0 {
                continue;
            }
            match self.prob.last_mut() {
                Some(last_prob)
                    if self.col.len() > action_start && self.col.last() == Some(&target) =>
                {
                    *last_prob += p;
                }
                _ => {
                    self.col.push(target);
                    self.prob.push(p);
                }
            }
        }
        self.action_ptr.push(self.col.len() as u32);
        Ok(action)
    }

    /// Finalises the arena into an [`Mdp`] whose start state is state 0.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is empty, a transition target is out
    /// of range, or some state has no actions.
    pub fn finish(mut self) -> Result<Mdp, MdpError> {
        if self.states == 0 {
            return Err(MdpError::EmptyModel);
        }
        // Close the final state's pair range.
        let last = self.row_ptr.len() - 1;
        self.row_ptr[last] = self.num_pairs() as u32;
        if let Some(state) = (0..self.states).find(|&s| self.row_ptr[s + 1] == self.row_ptr[s]) {
            return Err(MdpError::NoActions { state });
        }
        if let Some(&target) = self.col.iter().find(|&&t| t as usize >= self.states) {
            return Err(MdpError::InvalidState {
                state: target as usize,
                num_states: self.states,
            });
        }
        let layout = CsrLayout {
            row_ptr: self.row_ptr,
            action_ptr: self.action_ptr,
            col: self.col,
        };
        let mdp = Mdp::from_raw_parts(Arc::new(layout), self.prob)?;
        #[cfg(feature = "deep-checks")]
        debug_assert!(
            mdp.validate().is_ok(),
            "deep-checks: finished arena fails validation: {:?}",
            mdp.validate()
        );
        Ok(mdp)
    }
}

impl Default for CsrMdpBuilder {
    fn default() -> Self {
        CsrMdpBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_builder_produces_expected_layout() {
        let mut b = CsrMdpBuilder::new();
        assert_eq!(b.begin_state(), 0);
        assert_eq!(b.add_action(&[(0, 0.5), (1, 0.5)]).unwrap(), 0);
        assert_eq!(b.add_action(&[(1, 1.0)]).unwrap(), 1);
        assert_eq!(b.begin_state(), 1);
        assert_eq!(b.add_action(&[(0, 1.0)]).unwrap(), 0);
        let mdp = b.finish().unwrap();
        assert_eq!(mdp.num_states(), 2);
        assert_eq!(mdp.num_pairs(), 3);
        assert_eq!(mdp.num_transitions(), 4);
        assert_eq!(mdp.layout().row_ptr(), &[0, 2, 3]);
        assert_eq!(mdp.layout().action_ptr(), &[0, 2, 3, 4]);
        assert_eq!(mdp.layout().col(), &[0, 1, 1, 0]);
    }

    #[test]
    fn duplicate_targets_are_merged_and_zeros_dropped() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 0.25), (0, 0.5), (0, 0.25), (0, 0.0)])
            .unwrap();
        let mdp = b.finish().unwrap();
        assert_eq!(mdp.successors(0, 0), (&[0u32][..], &[1.0f64][..]));
    }

    #[test]
    fn merge_does_not_leak_across_actions() {
        // Two consecutive actions both ending/starting at the same target
        // must not be merged together.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mdp = b.finish().unwrap();
        assert_eq!(mdp.num_pairs(), 2);
        assert_eq!(mdp.successors(0, 0), (&[0u32][..], &[1.0f64][..]));
        assert_eq!(mdp.successors(0, 1), (&[0u32][..], &[1.0f64][..]));
    }

    #[test]
    fn forward_references_are_allowed_until_finish() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(5, 1.0)]).unwrap();
        let err = b.finish().unwrap_err();
        assert!(matches!(err, MdpError::InvalidState { state: 5, .. }));
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = CsrMdpBuilder::new();
        assert!(matches!(
            b.add_action(&[(0, 1.0)]),
            Err(MdpError::InvalidState { .. })
        ));
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        b.begin_state();
        assert_eq!(
            b.add_action(&[(0, 0.5)]),
            Err(MdpError::InvalidDistribution {
                state: 1,
                action: 0,
                sum: 0.5
            })
        );
        b.add_action(&[(1, 1.0)]).unwrap();
        assert!(matches!(
            b.add_action(&[(0, f64::NAN)]),
            Err(MdpError::InvalidDistribution {
                state: 1,
                action: 1,
                ..
            })
        ));
        assert!(matches!(
            CsrMdpBuilder::new().finish(),
            Err(MdpError::EmptyModel)
        ));
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        assert!(matches!(b.finish(), Err(MdpError::NoActions { state: 0 })));
    }

    #[test]
    fn layout_from_raw_parts_validates_invariants() {
        // A valid 2-state layout round-trips.
        let layout = CsrLayout::from_raw_parts(vec![0, 1, 2], vec![0, 1, 2], vec![1, 0]).unwrap();
        assert_eq!(layout.num_states(), 2);
        assert_eq!(layout.num_pairs(), 2);
        assert_eq!(layout.num_transitions(), 2);
        let invariant = |row_ptr: Vec<u32>, action_ptr: Vec<u32>, col: Vec<u32>| {
            matches!(
                CsrLayout::from_raw_parts(row_ptr, action_ptr, col),
                Err(MdpError::InvariantViolation { .. })
            )
        };
        // Pointer arrays must start at 0...
        assert!(invariant(vec![1, 2], vec![0], vec![]));
        assert!(invariant(vec![], vec![0], vec![]));
        // ...be monotone...
        assert!(invariant(vec![0, 2, 1], vec![0, 1, 2], vec![0, 0]));
        // ...and end at the right totals.
        assert!(invariant(vec![0, 1], vec![0, 1, 2], vec![0, 0]));
        assert!(invariant(vec![0, 1], vec![0, 3], vec![0, 0]));
        // Successors must be in range.
        assert!(matches!(
            CsrLayout::from_raw_parts(vec![0, 1], vec![0, 1], vec![5]),
            Err(MdpError::InvalidState { state: 5, .. })
        ));
    }

    #[test]
    fn mdp_from_raw_parts_checks_shapes_and_allows_masked_zeros() {
        let layout = Arc::new(
            CsrLayout::from_raw_parts(vec![0, 1, 2], vec![0, 2, 3], vec![0, 1, 0]).unwrap(),
        );
        // Zero-probability ("masked") entries are allowed as long as rows
        // still sum to 1.
        let mdp = Mdp::from_raw_parts(Arc::clone(&layout), vec![1.0, 0.0, 1.0]).unwrap();
        mdp.validate().unwrap();
        assert_eq!(mdp.successors(0, 0), (&[0u32, 1][..], &[1.0f64, 0.0][..]));

        // A misaligned probability buffer is a layout defect, and a layout
        // without states has no start state.
        assert!(matches!(
            Mdp::from_raw_parts(layout, vec![1.0]),
            Err(MdpError::InvariantViolation { .. })
        ));
        let empty = CsrLayout::from_raw_parts(vec![0], vec![0], vec![]).unwrap();
        assert_eq!(
            Mdp::from_raw_parts(Arc::new(empty), vec![]),
            Err(MdpError::EmptyModel)
        );
    }

    #[test]
    fn reweight_in_place_rewrites_the_probability_buffer() {
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        b.add_action(&[(0, 0.25), (1, 0.75)]).unwrap();
        b.begin_state();
        b.add_action(&[(0, 1.0)]).unwrap();
        let mut mdp = b.finish().unwrap();
        let new_probs = [0.5, 0.5, 1.0];
        mdp.reweight_in_place(|k| new_probs[k]);
        assert_eq!(mdp.probabilities(), &new_probs);
        mdp.validate().unwrap();
    }

    #[test]
    fn with_capacity_matches_default_semantics() {
        let build = |mut b: CsrMdpBuilder| {
            b.begin_state();
            b.add_action(&[(1, 1.0)]).unwrap();
            b.begin_state();
            b.add_action(&[(0, 1.0)]).unwrap();
            b.finish().unwrap()
        };
        let mdp = build(CsrMdpBuilder::with_capacity(2, 3, 4));
        assert!(mdp.validate().is_ok());
        assert_eq!(mdp, build(CsrMdpBuilder::new()));
        assert_eq!(mdp, build(CsrMdpBuilder::default()));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_indices_fail_with_the_typed_overflow_error() {
        let too_big = u32::MAX as usize + 1;
        assert_eq!(compact_index(too_big - 1).unwrap(), u32::MAX);
        let err = compact_index(too_big).unwrap_err();
        assert!(matches!(
            err,
            MdpError::IndexOverflow { value, limit }
                if value == too_big && limit == COMPACT_ARENA_LIMIT
        ));
        // The streaming builder rejects oversized targets before mutating
        // its buffers.
        let mut b = CsrMdpBuilder::new();
        b.begin_state();
        let err = b.add_action(&[(too_big, 1.0)]).unwrap_err();
        assert!(matches!(err, MdpError::IndexOverflow { .. }));
        assert_eq!(b.num_transitions(), 0);
    }
}
