//! Strongly connected components and state classification.
//!
//! The classification of states into recurrent and transient is what lets the
//! exact gain computation ([`crate::long_run_average_reward`]) and Howard
//! policy iteration handle chains induced by arbitrary strategies, including
//! multichain ones (the selfish-mining MDP's reasonable strategies induce a
//! single recurrent class — see the proof of Theorem 3.1 — but policy
//! iteration may pass through others).

use sm_mdp::MarkovChain;

/// Classification of a single state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateClass {
    /// The state belongs to a closed (recurrent) communicating class.
    Recurrent {
        /// Index of the recurrent class the state belongs to.
        class: usize,
    },
    /// The state is transient: with probability 1 the chain eventually leaves
    /// it forever.
    Transient,
}

/// Result of Tarjan's SCC decomposition over the transition graph of a chain,
/// together with the recurrent/transient classification of every SCC.
#[derive(Debug, Clone)]
pub struct StronglyConnectedComponents {
    /// SCC index of every state (indices are arbitrary but contiguous from 0).
    component_of: Vec<usize>,
    /// States of each SCC.
    components: Vec<Vec<usize>>,
    /// Indices (into `components`) of the closed SCCs, i.e. recurrent classes.
    recurrent: Vec<usize>,
    /// Per-state classification.
    classes: Vec<StateClass>,
}

impl StronglyConnectedComponents {
    /// Runs the decomposition for the given chain.
    pub fn of_chain(chain: &MarkovChain) -> Self {
        let n = chain.num_states();
        let mut tarjan = Tarjan::new(n);
        for v in 0..n {
            if tarjan.index_of[v].is_none() {
                tarjan.strong_connect(v, chain);
            }
        }
        let components = tarjan.components;
        let mut component_of = vec![0usize; n];
        for (ci, comp) in components.iter().enumerate() {
            for &s in comp {
                component_of[s] = ci;
            }
        }
        // A component is closed (recurrent) iff no positive-probability
        // transition leaves it (structural zero-probability entries, as kept
        // by parametric arenas for masked branches, are not edges).
        let mut recurrent = Vec::new();
        for (ci, comp) in components.iter().enumerate() {
            let closed = comp.iter().all(|&s| {
                let (targets, probs) = chain.successors(s);
                targets
                    .iter()
                    .zip(probs)
                    .all(|(&t, &p)| p == 0.0 || component_of[t as usize] == ci)
            });
            if closed {
                recurrent.push(ci);
            }
        }
        let mut classes = vec![StateClass::Transient; n];
        for (rank, &ci) in recurrent.iter().enumerate() {
            for &s in &components[ci] {
                classes[s] = StateClass::Recurrent { class: rank };
            }
        }
        StronglyConnectedComponents {
            component_of,
            components,
            recurrent,
            classes,
        }
    }

    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// SCC index of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn component_of(&self, state: usize) -> usize {
        self.component_of[state]
    }

    /// The states of every SCC.
    pub fn components(&self) -> &[Vec<usize>] {
        &self.components
    }

    /// The recurrent classes, each given as its member states.
    pub fn recurrent_classes(&self) -> Vec<&[usize]> {
        self.recurrent
            .iter()
            .map(|&ci| self.components[ci].as_slice())
            .collect()
    }

    /// Per-state classification (recurrent with class index, or transient).
    pub fn state_classes(&self) -> &[StateClass] {
        &self.classes
    }

    /// The transient states.
    pub fn transient_states(&self) -> Vec<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(s, c)| matches!(c, StateClass::Transient).then_some(s))
            .collect()
    }
}

/// Iterative Tarjan SCC (explicit stack to avoid recursion depth limits on the
/// large chains induced by selfish-mining strategies).
struct Tarjan {
    index_counter: usize,
    index_of: Vec<Option<usize>>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    components: Vec<Vec<usize>>,
}

impl Tarjan {
    fn new(n: usize) -> Self {
        Tarjan {
            index_counter: 0,
            index_of: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            components: Vec::new(),
        }
    }

    fn strong_connect(&mut self, root: usize, chain: &MarkovChain) {
        // Explicit DFS stack of (node, next-successor-position).
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, child_pos)) = work.last() {
            if child_pos == 0 {
                self.index_of[v] = Some(self.index_counter);
                self.lowlink[v] = self.index_counter;
                self.index_counter += 1;
                self.stack.push(v);
                self.on_stack[v] = true;
            }
            let (targets, probs) = chain.successors(v);
            if child_pos < targets.len() {
                let w = targets[child_pos] as usize;
                work.last_mut().expect("work stack is non-empty").1 += 1;
                if probs[child_pos] == 0.0 {
                    // Masked (structurally kept, numerically zero) branch:
                    // not an edge of the chain.
                    continue;
                }
                match self.index_of[w] {
                    None => work.push((w, 0)),
                    Some(w_index) => {
                        if self.on_stack[w] {
                            self.lowlink[v] = self.lowlink[v].min(w_index);
                        }
                    }
                }
            } else {
                // Finished v.
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[v]);
                }
                if Some(self.lowlink[v]) == self.index_of[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = self.stack.pop().expect("stack contains the SCC root");
                        self.on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    self.components.push(component);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChainAnalysis;

    fn chain(rows: Vec<Vec<(usize, f64)>>) -> MarkovChain {
        crate::chain_from_rows(&rows).unwrap()
    }

    #[test]
    fn single_recurrent_class_for_irreducible_chain() {
        let c = chain(vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(0, 1.0)]]);
        let scc = c.classify();
        assert_eq!(scc.num_components(), 1);
        assert_eq!(scc.recurrent_classes().len(), 1);
        assert!(scc.transient_states().is_empty());
    }

    #[test]
    fn absorbing_state_is_recurrent_others_transient() {
        let c = chain(vec![vec![(0, 0.5), (1, 0.5)], vec![(1, 1.0)]]);
        let scc = c.classify();
        assert_eq!(scc.recurrent_classes().len(), 1);
        assert_eq!(scc.recurrent_classes()[0], &[1]);
        assert_eq!(scc.transient_states(), vec![0]);
        assert_eq!(scc.state_classes()[0], StateClass::Transient);
        assert_eq!(scc.state_classes()[1], StateClass::Recurrent { class: 0 });
    }

    #[test]
    fn two_disjoint_recurrent_classes() {
        // 0 -> {1,2} then 1 and 2 are each absorbing.
        let c = chain(vec![
            vec![(1, 0.5), (2, 0.5)],
            vec![(1, 1.0)],
            vec![(2, 1.0)],
        ]);
        let scc = c.classify();
        assert_eq!(scc.recurrent_classes().len(), 2);
        assert_eq!(scc.transient_states(), vec![0]);
        assert!(!c.is_unichain());
    }

    #[test]
    fn component_of_is_consistent_with_components() {
        let c = chain(vec![
            vec![(1, 1.0)],
            vec![(0, 1.0)],
            vec![(0, 0.3), (2, 0.7)],
        ]);
        let scc = c.classify();
        for (ci, comp) in scc.components().iter().enumerate() {
            for &s in comp {
                assert_eq!(scc.component_of(s), ci);
            }
        }
    }

    #[test]
    fn long_cycle_is_one_component() {
        let n = 500;
        let rows: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![((i + 1) % n, 1.0)]).collect();
        let c = chain(rows);
        let scc = c.classify();
        assert_eq!(scc.num_components(), 1);
        assert_eq!(scc.recurrent_classes()[0].len(), n);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // A long transient path into an absorbing state exercises the
        // iterative DFS.
        let n = 20_000;
        let mut rows: Vec<Vec<(usize, f64)>> = (0..n - 1).map(|i| vec![(i + 1, 1.0)]).collect();
        rows.push(vec![(n - 1, 1.0)]);
        let c = chain(rows);
        let scc = c.classify();
        assert_eq!(scc.recurrent_classes().len(), 1);
        assert_eq!(scc.transient_states().len(), n - 1);
    }
}
