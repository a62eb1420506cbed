//! Activation analysis: task activation conditions `X(τ)`, the minterm
//! family `Γ(τ)`, mutual exclusion and implied or-node dependencies.

use crate::condition::{Cube, Dnf, Literal};
use crate::graph::{Ctg, NodeKind};
use crate::id::TaskId;

/// Result of analyzing the activation structure of a [`Ctg`].
///
/// For every task `τ` the analysis computes the activation condition `X(τ)`
/// as a DNF over branch-selection literals, by propagating conditions in
/// topological order:
///
/// * an **and-node** is active when each incoming edge's guard and its
///   source's activation condition hold — the conjunction over predecessors;
/// * an **or-node** is active when at least one incoming dependency fires —
///   the disjunction over predecessors.
///
/// The *raw* DNF keeps all generated cubes (this matches the paper's
/// `Γ(τ8) = {1, a1}` for Example 1) while the *simplified* DNF applies
/// absorption and is used for logical queries such as mutual exclusion.
///
/// The simplified DNFs are also compiled to literal-slot masks, which
/// answer the per-instance activation queries (the active set of a
/// [`DecisionVector`](crate::DecisionVector), the scenario enumeration)
/// without interpreting the DNFs; [`Activation::is_active`] keeps
/// evaluating the DNF for an arbitrary assignment.
#[derive(Debug, Clone)]
pub struct Activation {
    x_raw: Vec<Dnf>,
    x: Vec<Dnf>,
    implied_or_deps: Vec<(TaskId, TaskId)>,
    masks: CompiledX,
}

/// Literal-mask words kept on the stack: graphs with up to 64 literal
/// slots (every paper and benchmark workload) build their literal masks
/// without allocating; a wider graph's mask lives on the heap.
const INLINE_WORDS: usize = 1;

/// Every task's simplified `X(τ)` compiled to literal-slot masks.
///
/// Alternative `a` of fork `b` owns literal slot `base(b) + a`: the forks'
/// alternatives lie back to back in [`Ctg::branch_nodes`] order. A cube
/// compiles to the mask of its literals' slots, `words` words wide, and a
/// task's cubes lie back to back. Under a [`LiteralMask`] holding the slot
/// of every literal that holds, a cube holds exactly when its mask is a
/// subset of the literal mask, so `X(τ)` holds when one of its cube masks
/// is: the top cube's empty mask always is, a false `X(τ)` has no cube.
#[derive(Debug, Clone)]
struct CompiledX {
    /// Words per mask: one per 64 literal slots, at least one.
    words: usize,
    /// Per task id: the first slot of its alternatives, `u32::MAX` for a
    /// task that is not a branch fork.
    base: Vec<u32>,
    /// Per fork in [`Ctg::branch_nodes`] order (a decision-vector
    /// position): its first slot and its number of alternatives.
    forks: Vec<(u32, u8)>,
    /// Task `t`'s cube masks are `cubes[off[t] * words..off[t + 1] * words]`.
    off: Vec<u32>,
    cubes: Vec<u64>,
}

impl CompiledX {
    fn compile(ctg: &Ctg, x: &[Dnf]) -> Self {
        let mut base = vec![u32::MAX; ctg.num_tasks()];
        let mut forks = Vec::with_capacity(ctg.num_branches());
        let mut slots = 0u32;
        for &b in ctg.branch_nodes() {
            let alts = ctg.node(b).alternatives();
            base[b.index()] = slots;
            forks.push((slots, alts));
            slots += u32::from(alts);
        }
        let words = (slots as usize).div_ceil(64).max(1);
        let mut off = Vec::with_capacity(x.len() + 1);
        off.push(0);
        let mut cubes = Vec::new();
        for dnf in x {
            for cube in dnf.cubes() {
                let at = cubes.len();
                cubes.resize(at + words, 0);
                for lit in cube.literals() {
                    // Every literal names an alternative of a fork: the
                    // builder numbers a fork's alternatives 0..k.
                    let slot = (base[lit.branch().index()] + u32::from(lit.alt())) as usize;
                    cubes[at + slot / 64] |= 1 << (slot % 64);
                }
            }
            off.push((cubes.len() / words) as u32);
        }
        CompiledX {
            words,
            base,
            forks,
            off,
            cubes,
        }
    }

    /// Whether `X(τ)` of task `t` holds under `lits`: one of its cube
    /// masks is a subset of `lits` (masks `W` words wide, or `words` for
    /// `W` = 0).
    fn holds<const W: usize>(&self, t: usize, lits: &[u64]) -> bool {
        self.holds_in::<W>(self.off[t] as usize, self.off[t + 1] as usize, lits)
    }

    /// Every task's `X(τ)` under `lits` into `out`, with the masks' width
    /// fixed at compile time (`W` words, or `words` read at run time for
    /// `W` = 0).
    fn holds_into<const W: usize>(&self, lits: &[u64], out: &mut Vec<bool>) {
        out.clear();
        out.extend(
            self.off
                .windows(2)
                .map(|r| self.holds_in::<W>(r[0] as usize, r[1] as usize, lits)),
        );
    }

    /// Whether one of the cube masks `from..to` is a subset of `lits`.
    fn holds_in<const W: usize>(&self, from: usize, to: usize, lits: &[u64]) -> bool {
        let w = if W == 0 { self.words } else { W };
        let lits = &lits[..w];
        self.cubes[from * w..to * w]
            .chunks_exact(w)
            .any(|cube| cube.iter().zip(lits).all(|(c, l)| c & !l == 0))
    }
}

/// The literals that hold under a (partial) assignment, as a mask over
/// the literal slots of [`CompiledX`].
pub(crate) struct LiteralMask {
    inline: [u64; INLINE_WORDS],
    heap: Vec<u64>,
    words: usize,
}

impl LiteralMask {
    fn words(&self) -> &[u64] {
        if self.words <= INLINE_WORDS {
            &self.inline[..self.words]
        } else {
            &self.heap
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        if self.words <= INLINE_WORDS {
            &mut self.inline[..self.words]
        } else {
            &mut self.heap
        }
    }

    fn set(&mut self, slot: u32) {
        let slot = slot as usize;
        self.words_mut()[slot / 64] |= 1 << (slot % 64);
    }
}

impl Activation {
    /// Runs the analysis for `ctg`.
    ///
    /// Prefer calling [`Ctg::activation`].
    pub fn analyze(ctg: &Ctg) -> Self {
        let n = ctg.num_tasks();
        let mut x_raw = vec![Dnf::false_(); n];
        let mut x = vec![Dnf::false_(); n];

        for &t in ctg.topological() {
            let ti = t.index();
            let mut in_terms: Vec<(Dnf, Dnf)> = Vec::new(); // (raw, simplified)
            for (_, e) in ctg.in_edges(t) {
                let guard = match e.condition() {
                    Some(alt) => Cube::from_literal(Literal::new(e.src(), alt)),
                    None => Cube::top(),
                };
                let raw = x_raw[e.src().index()].and_cube(&guard);
                let simp = x[e.src().index()].and_cube(&guard).simplified();
                in_terms.push((raw, simp));
            }
            if in_terms.is_empty() {
                x_raw[ti] = Dnf::top();
                x[ti] = Dnf::top();
                continue;
            }
            match ctg.node(t).kind() {
                NodeKind::And => {
                    let mut raw = Dnf::top();
                    let mut simp = Dnf::top();
                    for (r, s) in in_terms {
                        raw = raw.and(&r);
                        simp = simp.and(&s).simplified();
                    }
                    x_raw[ti] = raw;
                    x[ti] = simp;
                }
                NodeKind::Or => {
                    let mut raw = Dnf::false_();
                    let mut simp = Dnf::false_();
                    for (r, s) in in_terms {
                        raw = raw.or(&r);
                        simp = simp.or(&s);
                    }
                    x_raw[ti] = raw;
                    x[ti] = simp.simplified();
                }
            }
        }

        // Implied dependencies (paper Example 1): an or-node cannot commit to
        // skipping a conditional predecessor before the fork nodes deciding
        // that predecessor's activation have executed.
        let mut implied_or_deps = Vec::new();
        for t in ctg.tasks() {
            if ctg.node(t).kind() != NodeKind::Or {
                continue;
            }
            let mut forks: Vec<TaskId> = Vec::new();
            for (_, e) in ctg.in_edges(t) {
                if let Some(_alt) = e.condition() {
                    forks.push(e.src());
                }
                for cube in x_raw[e.src().index()].cubes() {
                    for lit in cube.literals() {
                        forks.push(lit.branch());
                    }
                }
            }
            forks.sort_unstable();
            forks.dedup();
            for f in forks {
                if f != t && !ctg.predecessors(t).any(|p| p == f) {
                    implied_or_deps.push((f, t));
                }
            }
        }

        let masks = CompiledX::compile(ctg, &x);
        Activation {
            x_raw,
            x,
            implied_or_deps,
            masks,
        }
    }

    /// The simplified activation condition `X(τ)`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the analyzed graph.
    pub fn condition(&self, task: TaskId) -> &Dnf {
        &self.x[task.index()]
    }

    /// The raw (un-absorbed) activation DNF whose cubes form `Γ(τ)`,
    /// the set of minterms the task is associated with.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the analyzed graph.
    pub fn gamma(&self, task: TaskId) -> &[Cube] {
        self.x_raw[task.index()].cubes()
    }

    /// Whether `task` is unconditionally activated in every run.
    pub fn always_active(&self, task: TaskId) -> bool {
        self.x[task.index()].is_true()
    }

    /// Whether two tasks can never be active in the same run
    /// (`X(τi) ∧ X(τj) = 0`).
    pub fn mutually_exclusive(&self, a: TaskId, b: TaskId) -> bool {
        self.x[a.index()].disjoint(&self.x[b.index()])
    }

    /// Implied `(fork, or_node)` scheduling dependencies: the or-node must
    /// wait for the fork to finish even though no CTG edge connects them.
    pub fn implied_or_deps(&self) -> &[(TaskId, TaskId)] {
        &self.implied_or_deps
    }

    /// Evaluates whether `task` is activated under a complete assignment of
    /// branch alternatives (see [`Cube::eval`] for the `None` convention).
    pub fn is_active<F: Fn(TaskId) -> Option<u8> + Copy>(&self, task: TaskId, alt_of: F) -> bool {
        self.x[task.index()].eval(alt_of)
    }

    /// Number of tasks of the analyzed graph.
    pub(crate) fn num_tasks(&self) -> usize {
        self.x.len()
    }

    /// An empty literal mask: no literal holds.
    pub(crate) fn literal_mask(&self) -> LiteralMask {
        let words = self.masks.words;
        LiteralMask {
            inline: [0; INLINE_WORDS],
            heap: if words > INLINE_WORDS {
                vec![0; words]
            } else {
                Vec::new()
            },
            words,
        }
    }

    /// Makes `lits` the literals a decision vector's alternatives assert,
    /// `alts[i]` deciding the fork at [`Ctg::branch_nodes`] position `i`.
    /// An alternative at or above its fork's count sets nothing (no literal
    /// of that fork holds), as does a position missing from a short vector.
    pub(crate) fn decide(&self, alts: &[u8], lits: &mut LiteralMask) {
        lits.words_mut().fill(0);
        for (&alt, &(base, count)) in alts.iter().zip(&self.masks.forks) {
            if alt < count {
                lits.set(base + u32::from(alt));
            }
        }
    }

    /// Makes `lits` the literals of `cube`: only the forks it decides.
    pub(crate) fn decide_cube(&self, cube: &Cube, lits: &mut LiteralMask) {
        lits.words_mut().fill(0);
        for lit in cube.literals() {
            lits.set(self.masks.base[lit.branch().index()] + u32::from(lit.alt()));
        }
    }

    /// Whether `X(task)` holds when exactly the literals of `lits` hold.
    pub(crate) fn holds(&self, task: TaskId, lits: &LiteralMask) -> bool {
        self.masks.holds::<0>(task.index(), lits.words())
    }

    /// Fills `out` with [`Activation::holds`] of each of `tasks`, in order:
    /// only their cube masks are tested.
    pub(crate) fn holds_of_into(&self, tasks: &[TaskId], lits: &LiteralMask, out: &mut Vec<bool>) {
        let lits = lits.words();
        out.clear();
        match lits.len() {
            1 => out.extend(tasks.iter().map(|t| self.masks.holds::<1>(t.index(), lits))),
            _ => out.extend(tasks.iter().map(|t| self.masks.holds::<0>(t.index(), lits))),
        }
    }

    /// Fills `out` with every task's [`Activation::holds`], indexed by
    /// task id.
    ///
    /// The per-instance query: one mask word (up to 64 literal slots) is
    /// fixed at compile time, wider masks read their width at run time.
    pub(crate) fn holds_into(&self, lits: &LiteralMask, out: &mut Vec<bool>) {
        let lits = lits.words();
        match lits.len() {
            1 => self.masks.holds_into::<1>(lits, out),
            _ => self.masks.holds_into::<0>(lits, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CtgBuilder;

    /// Example 1 from the paper (Figure 1).
    ///
    /// τ1..τ8 with τ3 forking a1/a2, τ5 forking b1/b2, τ8 an or-node fed by
    /// τ2 (unconditional) and τ4 (active under a1).
    pub(crate) fn example1() -> (Ctg, [TaskId; 8]) {
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
        b.add_cond_edge(t3, t4, 0, 1.0).unwrap(); // a1
        b.add_cond_edge(t3, t5, 1, 1.0).unwrap(); // a2
        b.add_cond_edge(t5, t6, 0, 1.0).unwrap(); // b1
        b.add_cond_edge(t5, t7, 1, 1.0).unwrap(); // b2
        b.add_edge(t2, t8, 1.0).unwrap();
        b.add_edge(t4, t8, 1.0).unwrap();
        let g = b.deadline(100.0).build().unwrap();
        (g, [t1, t2, t3, t4, t5, t6, t7, t8])
    }

    #[test]
    fn example1_activation_conditions() {
        let (g, [t1, t2, t3, t4, t5, t6, t7, t8]) = example1();
        let act = g.activation();
        for t in [t1, t2, t3] {
            assert!(act.always_active(t), "{t} should be unconditional");
        }
        // Γ(τ4)={a1}, Γ(τ5)={a2}, Γ(τ6)={a2 b1}, Γ(τ7)={a2 b2}.
        assert_eq!(act.gamma(t4).len(), 1);
        assert_eq!(act.gamma(t4)[0].to_string(), "t2=0"); // t3 is TaskId 2
        assert_eq!(act.gamma(t5)[0].to_string(), "t2=1");
        assert_eq!(act.gamma(t6)[0].to_string(), "t2=1·t4=0");
        assert_eq!(act.gamma(t7)[0].to_string(), "t2=1·t4=1");
        // Γ(τ8) = {1, a1} (raw keeps both cubes), X(τ8) simplifies to true.
        assert_eq!(act.gamma(t8).len(), 2);
        assert!(act.always_active(t8));
    }

    #[test]
    fn example1_mutual_exclusion() {
        let (g, [_, t2, _, t4, t5, t6, t7, t8]) = example1();
        let act = g.activation();
        assert!(act.mutually_exclusive(t4, t5));
        assert!(act.mutually_exclusive(t4, t6));
        assert!(act.mutually_exclusive(t6, t7));
        assert!(!act.mutually_exclusive(t5, t6));
        assert!(!act.mutually_exclusive(t2, t4));
        assert!(!act.mutually_exclusive(t8, t4));
    }

    #[test]
    fn example1_implied_or_dep() {
        let (g, [_, _, t3, _, _, _, _, t8]) = example1();
        let act = g.activation();
        // τ8 must wait for the fork τ3 (paper: "τ8 must wait until both τ2
        // and τ3 finish").
        assert!(act.implied_or_deps().contains(&(t3, t8)));
        assert_eq!(act.implied_or_deps().len(), 1);
    }

    #[test]
    fn example1_is_active_per_assignment() {
        let (g, [_, _, t3, t4, t5, t6, _, t8]) = example1();
        let act = g.activation();
        // a1 selected, b irrelevant.
        let a1 = |b: TaskId| if b == t3 { Some(0) } else { None };
        assert!(act.is_active(t4, a1));
        assert!(!act.is_active(t5, a1));
        assert!(!act.is_active(t6, a1));
        assert!(act.is_active(t8, a1));
        // a2, b1.
        let a2b1 = |b: TaskId| {
            if b == t3 {
                Some(1)
            } else if b == t5 {
                Some(0)
            } else {
                None
            }
        };
        assert!(!act.is_active(t4, a2b1));
        assert!(act.is_active(t6, a2b1));
        assert!(act.is_active(t8, a2b1));
    }

    #[test]
    fn nested_and_node_conjunction() {
        // Join node depending on two conditional parents from the same fork:
        // active only when both guards hold, i.e. never when guards differ.
        let mut b = CtgBuilder::new("g");
        let f = b.add_task("f");
        let x = b.add_task("x");
        let y = b.add_task("y");
        let j = b.add_task("j");
        b.add_cond_edge(f, x, 0, 0.0).unwrap();
        b.add_cond_edge(f, y, 1, 0.0).unwrap();
        b.add_edge(x, j, 0.0).unwrap();
        b.add_edge(y, j, 0.0).unwrap();
        let g = b.deadline(1.0).build().unwrap();
        let act = g.activation();
        // j requires both x (alt 0) and y (alt 1): unsatisfiable.
        assert!(act.condition(j).is_false());
    }

    #[test]
    fn or_join_of_exclusive_branches_is_always_active() {
        let mut b = CtgBuilder::new("g");
        let f = b.add_task("f");
        let x = b.add_task("x");
        let y = b.add_task("y");
        let j = b.add_task_with_kind("j", NodeKind::Or);
        b.add_cond_edge(f, x, 0, 0.0).unwrap();
        b.add_cond_edge(f, y, 1, 0.0).unwrap();
        b.add_edge(x, j, 0.0).unwrap();
        b.add_edge(y, j, 0.0).unwrap();
        let g = b.deadline(1.0).build().unwrap();
        let act = g.activation();
        assert!(!act.condition(j).is_false());
        assert_eq!(act.gamma(j).len(), 2);
        // The or-join is active in every scenario: under alt0 via x, alt1 via y.
        assert!(act.is_active(j, |b| if b == f { Some(0) } else { None }));
        assert!(act.is_active(j, |b| if b == f { Some(1) } else { None }));
        // Implied dep: j waits for fork f.
        assert!(act.implied_or_deps().contains(&(f, j)));
    }
}
