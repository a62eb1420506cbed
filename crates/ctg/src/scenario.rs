//! Runtime scenarios and branch-decision vectors.
//!
//! A **decision vector** records, for one execution (instance) of the CTG,
//! the alternative chosen by every branch fork node — one vector position per
//! fork node, in topological order, exactly as the paper encodes its traces
//! (`⟨x1, x2, …, xn⟩`). A **scenario** is the projection of such a vector
//! onto the fork nodes that were actually activated; the set of scenarios is
//! the paper's minterm set `M` (plus the constant-true minterm "1").

use crate::activation::Activation;
use crate::condition::Cube;
use crate::graph::Ctg;
use crate::id::TaskId;
use crate::probability::BranchProbs;
use std::fmt;

/// One concrete run of the CTG: the alternative selected by each branch fork
/// node, in [`Ctg::branch_nodes`] order.
///
/// Positions of fork nodes that end up not being activated are still present
/// (a trace monitor records them anyway); they are simply ignored when
/// computing the active task set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionVector {
    alts: Vec<u8>,
}

impl DecisionVector {
    /// Creates a vector from per-fork alternatives in branch-node order.
    pub fn new(alts: Vec<u8>) -> Self {
        DecisionVector { alts }
    }

    /// The raw alternatives.
    pub fn alts(&self) -> &[u8] {
        &self.alts
    }

    /// Number of fork positions.
    pub fn len(&self) -> usize {
        self.alts.len()
    }

    /// Whether the vector has no positions.
    pub fn is_empty(&self) -> bool {
        self.alts.is_empty()
    }

    /// The alternative recorded for the fork at `branch_index`.
    ///
    /// # Panics
    ///
    /// Panics if `branch_index` is out of range.
    pub fn alt(&self, branch_index: usize) -> u8 {
        self.alts[branch_index]
    }

    /// Looks the vector up as an assignment for `ctg`'s fork nodes.
    ///
    /// Returns a closure suitable for [`Activation::is_active`].
    pub fn assignment<'a>(&'a self, ctg: &'a Ctg) -> impl Fn(TaskId) -> Option<u8> + Copy + 'a {
        move |b: TaskId| ctg.branch_index(b).map(|i| self.alts[i])
    }

    /// Computes the set of activated tasks under this vector, as a boolean
    /// vector indexed by task id.
    pub fn active_tasks(&self, ctg: &Ctg, act: &Activation) -> Vec<bool> {
        let mut out = Vec::new();
        self.active_tasks_into(ctg, act, &mut out);
        out
    }

    /// Like [`DecisionVector::active_tasks`], but writes into `out` so a hot
    /// loop can reuse one buffer across instances without reallocating.
    ///
    /// `act` must be `ctg`'s analysis. Each task's entry equals
    /// [`Activation::is_active`] under [`DecisionVector::assignment`]; the
    /// compiled masks answer it. An alternative outside its fork's range
    /// selects no branch of that fork.
    pub fn active_tasks_into(&self, ctg: &Ctg, act: &Activation, out: &mut Vec<bool>) {
        debug_assert_eq!(
            ctg.num_tasks(),
            act.num_tasks(),
            "act analyzes another graph"
        );
        let mut lits = act.literal_mask();
        act.decide(&self.alts, &mut lits);
        act.holds_into(&lits, out);
    }

    /// Which forks this vector executes: `out[i]` is whether the fork at
    /// [`Ctg::branch_nodes`] position `i` is active, the fork entries of
    /// [`DecisionVector::active_tasks_into`], but only the forks' own
    /// compiled masks are tested. Observing an instance's decisions needs
    /// no more (a trace monitor records a decision per executed fork).
    ///
    /// `act` must be `ctg`'s analysis. An alternative outside its fork's
    /// range selects no branch of that fork.
    pub fn executed_forks_into(&self, ctg: &Ctg, act: &Activation, out: &mut Vec<bool>) {
        debug_assert_eq!(
            ctg.num_tasks(),
            act.num_tasks(),
            "act analyzes another graph"
        );
        let mut lits = act.literal_mask();
        act.decide(&self.alts, &mut lits);
        act.holds_of_into(ctg.branch_nodes(), &lits, out);
    }
}

impl fmt::Display for DecisionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, a) in self.alts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "⟩")
    }
}

/// A consistent assignment of alternatives to the *activated* fork nodes of
/// one run, together with the tasks it activates.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    cube: Cube,
    active: Vec<bool>,
}

impl Scenario {
    /// The conjunction of branch literals decided in this scenario
    /// (the paper's minterm).
    pub fn cube(&self) -> &Cube {
        &self.cube
    }

    /// Whether `task` is activated in this scenario.
    pub fn is_active(&self, task: TaskId) -> bool {
        self.active[task.index()]
    }

    /// The activated task set as a boolean vector indexed by task id.
    pub fn active_tasks(&self) -> &[bool] {
        &self.active
    }

    /// Probability of this scenario under `probs` (product of the decided
    /// alternatives' probabilities).
    pub fn probability(&self, probs: &BranchProbs) -> f64 {
        self.cube.probability(probs)
    }
}

/// The complete enumeration of scenarios of a CTG.
///
/// Fork nodes are processed in topological order; a fork only contributes a
/// decision when it is activated under the decisions taken so far, so nested
/// conditional structures produce exactly the reachable minterms (e.g.
/// `{a1, a2·b1, a2·b2}` for the paper's Example 1).
///
/// The number of scenarios is at most `Π alternatives(b)` over fork nodes;
/// the paper's workloads stay well below 1024.
#[derive(Debug, Clone)]
pub struct ScenarioSet {
    scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Enumerates all scenarios of `ctg`.
    pub fn enumerate(ctg: &Ctg, act: &Activation) -> Self {
        let mut scenarios = Vec::new();
        let forks = ctg.branch_nodes();
        // The literals each partial cube decides, for the compiled masks.
        let mut lits = act.literal_mask();
        // Depth-first over fork nodes in topological order.
        let mut stack: Vec<(usize, Cube)> = vec![(0, Cube::top())];
        while let Some((i, cube)) = stack.pop() {
            act.decide_cube(&cube, &mut lits);
            if i == forks.len() {
                let mut active = Vec::with_capacity(ctg.num_tasks());
                act.holds_into(&lits, &mut active);
                scenarios.push(Scenario { cube, active });
                continue;
            }
            let fork = forks[i];
            if !act.holds(fork, &lits) {
                // Fork not reached under current decisions: no decision taken.
                stack.push((i + 1, cube));
                continue;
            }
            let alts = ctg.node(fork).alternatives();
            for alt in (0..alts).rev() {
                let ext = cube
                    .with(crate::condition::Literal::new(fork, alt))
                    .expect("fresh branch literal cannot contradict");
                stack.push((i + 1, ext));
            }
        }
        ScenarioSet { scenarios }
    }

    /// The scenarios in deterministic enumeration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty (never true for a valid CTG).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The paper's minterm set `M`: the scenario cubes plus the constant-true
    /// minterm "1".
    pub fn minterms(&self) -> Vec<Cube> {
        let mut m = vec![Cube::top()];
        for s in &self.scenarios {
            if !m.contains(s.cube()) {
                m.push(s.cube().clone());
            }
        }
        m
    }

    /// Activation probability `prob(τ)`: the sum of the probabilities of the
    /// scenarios that activate `task`.
    pub fn task_prob(&self, task: TaskId, probs: &BranchProbs) -> f64 {
        self.scenarios
            .iter()
            .filter(|s| s.is_active(task))
            .map(|s| s.probability(probs))
            .sum()
    }

    /// Probability that a condition cube holds: the sum over scenarios whose
    /// decisions imply the cube.
    pub fn cube_prob(&self, cube: &Cube, probs: &BranchProbs) -> f64 {
        self.scenarios
            .iter()
            .filter(|s| s.cube().implies(cube))
            .map(|s| s.probability(probs))
            .sum()
    }

    /// Finds the scenario matching a concrete decision vector (projecting
    /// away the decisions of non-activated forks).
    ///
    /// Returns `None` only if the vector length does not match the graph.
    pub fn scenario_of(&self, ctg: &Ctg, vector: &DecisionVector) -> Option<&Scenario> {
        if vector.len() != ctg.num_branches() {
            return None;
        }
        let assign = vector.assignment(ctg);
        self.scenarios.iter().find(|s| {
            s.cube()
                .literals()
                .iter()
                .all(|lit| assign(lit.branch()) == Some(lit.alt()))
                // Every activated fork in the scenario must be decided the
                // same way, and the scenario must decide every fork the
                // vector activates; cube-literal agreement plus activation
                // equality of fork nodes guarantees both.
                && ctg.branch_nodes().iter().all(|&b| {
                    let in_cube = s.cube().alt_of(b).is_some();
                    let active = s.is_active(b);
                    !active || in_cube
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CtgBuilder;
    use crate::graph::NodeKind;

    fn example1() -> (Ctg, [TaskId; 8]) {
        let mut b = CtgBuilder::new("example1");
        let t1 = b.add_task("t1");
        let t2 = b.add_task("t2");
        let t3 = b.add_task("t3");
        let t4 = b.add_task("t4");
        let t5 = b.add_task("t5");
        let t6 = b.add_task("t6");
        let t7 = b.add_task("t7");
        let t8 = b.add_task_with_kind("t8", NodeKind::Or);
        b.add_edge(t1, t2, 1.0).unwrap();
        b.add_edge(t1, t3, 1.0).unwrap();
        b.add_cond_edge(t3, t4, 0, 1.0).unwrap();
        b.add_cond_edge(t3, t5, 1, 1.0).unwrap();
        b.add_cond_edge(t5, t6, 0, 1.0).unwrap();
        b.add_cond_edge(t5, t7, 1, 1.0).unwrap();
        b.add_edge(t2, t8, 1.0).unwrap();
        b.add_edge(t4, t8, 1.0).unwrap();
        let g = b.deadline(100.0).build().unwrap();
        (g, [t1, t2, t3, t4, t5, t6, t7, t8])
    }

    #[test]
    fn example1_scenarios_match_paper_minterms() {
        let (g, _) = example1();
        let act = g.activation();
        let set = ScenarioSet::enumerate(&g, &act);
        // a1; a2·b1; a2·b2.
        assert_eq!(set.len(), 3);
        let m = set.minterms();
        // M = {1, a1, a2·b1, a2·b2}.
        assert_eq!(m.len(), 4);
        assert!(m.iter().any(Cube::is_top));
    }

    #[test]
    fn example1_task_probabilities() {
        let (g, [t1, _, t3, t4, t5, t6, t7, t8]) = example1();
        let act = g.activation();
        let set = ScenarioSet::enumerate(&g, &act);
        let mut probs = BranchProbs::new();
        probs.set(t3, vec![0.4, 0.6]).unwrap();
        probs.set(t5, vec![0.5, 0.5]).unwrap();
        let p = |t| set.task_prob(t, &probs);
        assert!((p(t1) - 1.0).abs() < 1e-12);
        assert!((p(t4) - 0.4).abs() < 1e-12);
        assert!((p(t5) - 0.6).abs() < 1e-12);
        assert!((p(t6) - 0.3).abs() < 1e-12);
        assert!((p(t7) - 0.3).abs() < 1e-12);
        assert!((p(t8) - 1.0).abs() < 1e-12);
        // Scenario probabilities sum to 1.
        let total: f64 = set.scenarios().iter().map(|s| s.probability(&probs)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decision_vector_active_set() {
        let (g, [_, _, _, t4, t5, t6, t7, t8]) = example1();
        let act = g.activation();
        // Branch order: t3 (index 0), t5 (index 1).
        let v = DecisionVector::new(vec![1, 0]); // a2, b1
        let active = v.active_tasks(&g, &act);
        assert!(!active[t4.index()]);
        assert!(active[t5.index()]);
        assert!(active[t6.index()]);
        assert!(!active[t7.index()]);
        assert!(active[t8.index()]);

        // a1 selected: the recorded b decision is ignored.
        let v = DecisionVector::new(vec![0, 1]);
        let active = v.active_tasks(&g, &act);
        assert!(active[t4.index()]);
        assert!(!active[t5.index()]);
        assert!(!active[t7.index()]);
    }

    #[test]
    fn scenario_of_projects_inactive_decisions() {
        let (g, _) = example1();
        let act = g.activation();
        let set = ScenarioSet::enumerate(&g, &act);
        let v0 = DecisionVector::new(vec![0, 0]);
        let v1 = DecisionVector::new(vec![0, 1]);
        let s0 = set.scenario_of(&g, &v0).unwrap();
        let s1 = set.scenario_of(&g, &v1).unwrap();
        // Both project to the same a1 scenario.
        assert_eq!(s0.cube(), s1.cube());
        assert_eq!(s0.cube().len(), 1);
        // Wrong arity yields None.
        assert!(set.scenario_of(&g, &DecisionVector::new(vec![0])).is_none());
    }

    #[test]
    fn cube_prob_sums_matching_scenarios() {
        let (g, [_, _, t3, _, _, _, _, _]) = example1();
        let act = g.activation();
        let set = ScenarioSet::enumerate(&g, &act);
        let probs = BranchProbs::uniform(&g);
        let a2 = Cube::from_literal(crate::condition::Literal::new(t3, 1));
        assert!((set.cube_prob(&a2, &probs) - 0.5).abs() < 1e-12);
        assert!((set.cube_prob(&Cube::top(), &probs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unconditional_graph_has_single_scenario() {
        let mut b = CtgBuilder::new("g");
        let a = b.add_task("a");
        let c = b.add_task("c");
        b.add_edge(a, c, 0.0).unwrap();
        let g = b.deadline(1.0).build().unwrap();
        let act = g.activation();
        let set = ScenarioSet::enumerate(&g, &act);
        assert_eq!(set.len(), 1);
        assert!(set.scenarios()[0].cube().is_top());
        assert!(set.scenarios()[0].is_active(a));
        assert!(set.scenarios()[0].is_active(c));
    }
}
