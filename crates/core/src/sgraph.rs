//! The scheduled graph: the CTG augmented with processor-order pseudo-edges,
//! and the path analysis the stretching heuristic runs on.
//!
//! After DLS commits a mapping, tasks sharing a PE are serialized (unless
//! mutually exclusive). Those serialization constraints become zero-delay
//! *pseudo-edges*; implied or-node waits become *implied* edges; CTG edges
//! keep their (possibly non-zero) communication delay and branch guard. The
//! union is transitively reduced and every source→sink path is enumerated
//! with its delay, activation condition and probability — the data the
//! paper's `CalculateSlack` routine consumes.
//!
//! The walk emits the paths in canonical pre-order, so each walk node's
//! subtree is one contiguous run of path indices. The build keeps those
//! runs per task ([`ScheduledGraph::span_ranges`]), and every stretcher
//! pass, `CalculateSlack` included, scans a task's paths through them;
//! nothing else is laid out per task. The walk is a stack of levels, one
//! per branching task of the prefix, each with a cursor over its task's
//! out-edges; it is compiled per mask width in words. A *link*, a task
//! whose one out-edge keeps its whole condition, and a sink take no
//! level: the walk steps through a link at once and closes a sink at
//! once. It records one frame per node it takes, the node's task and its
//! parent frame, and a path keeps only the frame that emitted it: its
//! tasks are that frame's chain of parents, read upward. The stretcher
//! and `validate_solution` walk the chains; [`SPath`] reads a flat copy
//! of every path's tasks and guards and every group's mask, laid out
//! from the graph the first time one is asked for. The graph keeps its
//! group masks as one flat word buffer. Every buffer a build writes
//! lives in a `BuildScratch` the solver workspace keeps between builds,
//! and the graph gets exact-size copies of what the walk emitted.
use std::collections::HashMap;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::OnceLock;

use crate::budget::WorkMeter;
use crate::context::{word_bits, words_prob, ScenarioMask, SchedContext};
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::speed::SpeedAssignment;
use ctg_model::{BranchProbs, Literal, TaskId};

/// FNV-1a over 64-bit words for the build-time mask interning: it hashes
/// each condition mask's words, and the group map hashes those hashes.
/// The map is refilled per build from non-adversarial keys (a few hundred
/// masks), so the cheap multiply-xor beats SipHash's per-key setup.
#[derive(Default)]
pub(crate) struct Fnv(u64);

type BuildFnv = std::hash::BuildHasherDefault<Fnv>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, v: u64) {
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = (h ^ v).wrapping_mul(FNV_PRIME);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Why an edge exists in the scheduled graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SEdgeKind {
    /// Original CTG dependency (carries communication delay and guard).
    Ctg,
    /// Same-PE serialization constraint.
    Pseudo,
    /// Implied or-node wait on a branch fork node.
    Implied,
}

/// An edge of the scheduled graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SEdge {
    /// Source task.
    pub src: TaskId,
    /// Destination task.
    pub dst: TaskId,
    /// Fixed delay contributed by the edge (communication time; never scaled
    /// by DVFS).
    pub delay: f64,
    /// Branch guard of the underlying CTG edge, if conditional.
    pub guard: Option<Literal>,
    /// Provenance of the edge.
    pub kind: SEdgeKind,
}

/// A node the path walk took: its task and the frame it was taken from,
/// the one of its prefix's previous task (`u32::MAX` at a root).
#[derive(Debug, Clone, Copy)]
struct Frame {
    task: u32,
    parent: u32,
}

/// One path of the store: the walk frame that emitted it, whose chain of
/// parents spells its tasks backwards, and its nominal delay.
#[derive(Debug, Clone, Copy)]
struct PathRec {
    frame: u32,
    delay: f64,
}

/// The two things `CalculateSlack` reads of a path besides its delay, kept
/// apart from its [`PathRec`] so a range scan streams 8 bytes per path:
/// its minterm group and the first suffix slot of its guard-literal
/// sequence among the graph's distinct ones (see
/// [`ScheduledGraph::guard_suffixes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathKey {
    pub(crate) group: u32,
    pub(crate) slot: u32,
}

/// A run of one task's spanning paths from the enumeration walk: the
/// canonical path indices `lo..hi` that a walk node of the task emitted in
/// its subtree, which are exactly the paths through the node, and `k`, the
/// guards the node's prefix decides (those on the edges up to and
/// including the one into the node). Nodes of one task whose runs adjoin
/// and whose `k` agree share one range.
///
/// Every path of a range passes the task at the end of one of the range's
/// node prefixes, and each guard's fork is the source of its edge, one
/// depth above the edge's destination, so the guards decided before the
/// task are that prefix's: the suffix slot of a path's pending guards at
/// the task is its first slot plus `k`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NodeRange {
    lo: u32,
    hi: u32,
    pub(crate) k: u32,
}

impl NodeRange {
    /// The canonical indices of the range's paths.
    pub(crate) fn paths(&self) -> Range<usize> {
        self.lo as usize..self.hi as usize
    }
}

/// A source→sink path of the scheduled graph, as used by the stretching
/// heuristic: a borrowed view of one of the graph's paths. Its tasks,
/// guards and condition come from the graph's flat copy, laid out on the
/// first read.
#[derive(Clone, Copy)]
pub struct SPath<'a> {
    graph: &'a ScheduledGraph,
    i: usize,
}

impl<'a> SPath<'a> {
    /// Tasks along the path, in order.
    pub fn tasks(&self) -> &'a [TaskId] {
        let flat = self.graph.flat();
        &flat.tasks[flat.task_off[self.i] as usize..flat.task_off[self.i + 1] as usize]
    }

    /// The set of scenarios in which the path exists — the paper's minterm
    /// of the path, represented over the scenario enumeration. Read from
    /// the flat view, which holds each minterm group's mask.
    pub fn cond(&self) -> &'a ScenarioMask {
        &self.graph.flat().group_masks[self.graph.keys[self.i].group as usize]
    }

    /// Path delay at nominal speeds: execution times plus fixed edge
    /// delays.
    pub fn delay(&self) -> f64 {
        self.graph.paths[self.i].delay
    }

    /// Branch guards on the path, with the path position of the deciding
    /// fork node.
    pub fn guards(&self) -> &'a [(u32, Literal)] {
        let flat = self.graph.flat();
        &flat.guards[flat.guard_off[self.i] as usize..flat.guard_off[self.i + 1] as usize]
    }

    /// Probability of [`SPath::cond`] under the probability table the
    /// graph was built (or last re-weighted) with.
    pub fn prob(&self) -> f64 {
        self.graph.group_prob[self.graph.keys[self.i].group as usize]
    }

    /// Whether `task` lies on this path.
    pub fn spans(&self, task: TaskId) -> bool {
        self.tasks().contains(&task)
    }

    /// The path's end-to-end delay when its tasks run at the given speeds
    /// (communication delays are fixed).
    pub fn stretched_delay(
        &self,
        ctx: &SchedContext,
        schedule: &Schedule,
        speeds: &SpeedAssignment,
    ) -> f64 {
        stretched_delay(ctx, schedule, speeds, self.delay(), self.tasks())
    }

    /// The paper's `prob(p, τ)`: joint probability of the branch guards
    /// decided at or after `task`'s position on the path.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not on the path.
    pub fn prob_after(&self, task: TaskId, probs: &BranchProbs) -> f64 {
        let pos = self
            .tasks()
            .iter()
            .position(|&t| t == task)
            .expect("task must lie on the path") as u32;
        self.guards()
            .iter()
            .filter(|(fork_pos, _)| *fork_pos >= pos)
            .map(|(_, lit)| probs.prob(lit.branch(), lit.alt()))
            .product()
    }
}

impl std::fmt::Debug for SPath<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SPath")
            .field("tasks", &self.tasks())
            .field("cond", self.cond())
            .field("delay", &self.delay())
            .field("guards", &self.guards())
            .field("prob", &self.prob())
            .finish()
    }
}

/// A path's end-to-end delay when `tasks`, its tasks in path order, run at
/// `speeds`: its nominal `delay` less their nominal execution times (the
/// fixed communication part), plus their stretched ones.
fn stretched_delay(
    ctx: &SchedContext,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
    delay: f64,
    tasks: &[TaskId],
) -> f64 {
    let profile = ctx.platform().profile();
    let wcet = |t: TaskId| profile.wcet(t.index(), schedule.pe_of(t));
    let comm_part: f64 = delay - tasks.iter().map(|&t| wcet(t)).sum::<f64>();
    comm_part
        + tasks
            .iter()
            .map(|&t| wcet(t) / speeds.speed(t))
            .sum::<f64>()
}

/// Every path's tasks and guards laid out flat, in canonical order: path
/// `i`'s are `tasks[task_off[i]..task_off[i + 1]]` and
/// `guards[guard_off[i]..guard_off[i + 1]]`. Also every minterm group's
/// condition mask as a [`ScenarioMask`].
#[derive(Debug, Clone)]
struct FlatPaths {
    task_off: Vec<u32>,
    tasks: Vec<TaskId>,
    guard_off: Vec<u32>,
    guards: Vec<(u32, Literal)>,
    group_masks: Vec<ScenarioMask>,
}

impl FlatPaths {
    /// Lays out `g`'s paths: each path's tasks are its frame chain
    /// reversed, and its guards the literals of its interned sequence,
    /// each at the path position of its fork — the source of the guarded
    /// edge, so the task the literal branches on. Each group's mask is
    /// read from the graph's flat group words.
    fn lay_out(g: &ScheduledGraph) -> Self {
        let seqs: Vec<(usize, &[Literal])> = g.guard_suffixes().collect();
        let mut flat = FlatPaths {
            task_off: vec![0],
            tasks: Vec::new(),
            guard_off: vec![0],
            guards: Vec::new(),
            group_masks: g
                .group_words()
                .map(|w| ScenarioMask::from_words(w, g.scenarios))
                .collect(),
        };
        for (i, key) in g.keys.iter().enumerate() {
            let start = flat.tasks.len();
            flat.tasks.extend(g.chain(i));
            flat.tasks[start..].reverse();
            let tasks = &flat.tasks[start..];
            let j = seqs
                .binary_search_by_key(&(key.slot as usize), |&(first, _)| first)
                .expect("a path's slot is its sequence's first");
            let mut pos = 0;
            for &lit in seqs[j].1 {
                while tasks[pos] != lit.branch() {
                    pos += 1;
                }
                flat.guards.push((pos as u32, lit));
            }
            flat.task_off.push(flat.tasks.len() as u32);
            flat.guard_off.push(flat.guards.len() as u32);
        }
        flat
    }
}

/// The scheduled graph plus its enumerated paths: each path is the walk
/// frame that emitted it, whose parent chain spells its tasks, paths with
/// content-equal condition masks share one minterm group holding the mask
/// and its probability, and paths with equal guard-literal sequences share
/// one interned sequence. The group masks sit in one flat word buffer; a
/// [`ScenarioMask`] per group exists only in the flat view.
#[derive(Debug, Clone)]
pub struct ScheduledGraph {
    edges: Vec<SEdge>,
    /// The context's scenario count.
    scenarios: usize,
    /// Every frame the walk took, in the order it took them.
    frames: Vec<Frame>,
    /// The paths in canonical order: ascending task sequence, a prefix
    /// before its extensions. `paths[i]` is path `i`'s emitting frame and
    /// delay, `keys[i]` its group and slot.
    paths: Vec<PathRec>,
    keys: Vec<PathKey>,
    /// Per minterm group (ids in first-occurrence order over the canonical
    /// path order): its condition mask's words, group `g`'s in the `g`-th
    /// chunk of the context's mask words, and that mask's probability.
    group_words: Vec<u64>,
    group_prob: Vec<f64>,
    /// The distinct guard-literal sequences (ids in first-occurrence order
    /// over the canonical path order): `seqs[j]` delimits sequence `j` in
    /// `seq_lits`.
    seq_lits: Vec<Literal>,
    seqs: Vec<(u32, u32)>,
    /// The walk's node ranges bucketed by task, each task's in pre-order:
    /// `node_off[t]..node_off[t + 1]` are task `t`'s. A path spans a task
    /// at most once and a node's subtree holds exactly the paths through
    /// the node, so one task's ranges ascend, are disjoint and cover
    /// exactly the paths spanning it.
    nodes: Vec<NodeRange>,
    node_off: Vec<u32>,
    /// The worst-case-makespan DP's layout of `edges`, once a check has
    /// run on the graph.
    makespan: Option<MakespanDp>,
    /// Every path's tasks and guards and every group's mask laid out
    /// flat, once an [`SPath`] has read them.
    flat: OnceLock<FlatPaths>,
}

/// Serve workers move workspaces, and the graphs they pool, across
/// threads, and the pool clones them: this fails to compile if the graph
/// ever stops being plain data.
const _: () = {
    const fn is_plain<T: Send + Sync + Clone>() {}
    is_plain::<ScheduledGraph>()
};

/// Upper bound on enumerated paths before falling back to the caller's
/// coarser analysis.
pub const DEFAULT_PATH_CAP: usize = 50_000;

impl ScheduledGraph {
    /// Builds the scheduled graph for `schedule` and enumerates its paths.
    ///
    /// Returns `None` when the number of simple paths exceeds `cap`
    /// (pathological graphs); callers fall back to critical-path stretching.
    pub fn build(
        ctx: &SchedContext,
        schedule: &Schedule,
        probs: &BranchProbs,
        cap: usize,
    ) -> Option<Self> {
        Self::build_metered(ctx, schedule, probs, cap, &mut WorkMeter::unlimited())
            .expect("an unlimited meter cannot exceed its budget")
    }

    /// [`ScheduledGraph::build`] with a work budget: every enumeration step
    /// (frame expansion and edge extension) charges one unit to `meter`.
    ///
    /// The step count depends only on the schedule's topology, the scenario
    /// masks and the path cap — not on probability values — so the charge
    /// is a pure function of the problem and budget verdicts reproduce
    /// bit-for-bit. Under the cap it covers the whole walk; over the cap,
    /// the steps taken until the first overflowing path. With an unlimited
    /// meter this is exactly `build`.
    ///
    /// The walk emits the paths in canonical order and interns each path's
    /// condition mask into its minterm group, and its guard literals into
    /// their sequence, as it goes, so no sort and no grouping pass follow
    /// it. It records each node's run of path indices, bucketed by task
    /// after the walk, which is all the stretcher reads per task.
    ///
    /// The walk's scenario masks are `W` words wide for the narrowest `W`
    /// in 1–4 that holds the context's scenarios (every shipped graph
    /// fits: MPEG has 130, the 100-task fork-join TGFF graph 198), fixed
    /// at compile time, and the context's width read at run time above
    /// 256 scenarios. The width changes only how the word loops compile,
    /// not which words the walk computes.
    ///
    /// Apart from the probabilities the graph's groups are weighted with,
    /// the result — the `None` verdict and the charge included — depends
    /// on the schedule's mapping alone: the assignment and each PE's order.
    /// The start times only prune the reduction's reachability search,
    /// which cannot change its outcome (see `Reduction::reduce`), and the
    /// global commit order is never read.
    ///
    /// # Errors
    ///
    /// [`SchedError::SolveBudgetExceeded`] when the budget is crossed; the
    /// `Ok(None)` case still means the path cap was exceeded.
    pub fn build_metered(
        ctx: &SchedContext,
        schedule: &Schedule,
        probs: &BranchProbs,
        cap: usize,
        meter: &mut WorkMeter,
    ) -> Result<Option<Self>, SchedError> {
        let words = ctx.scenarios().len().div_ceil(64);
        let scenario_probs = ctx.scenario_probs(probs);
        Self::build_with(ctx, schedule, &scenario_probs, cap, meter, words, None)
    }

    /// [`ScheduledGraph::build_metered`] through `scratch`'s buffers, which
    /// keep their capacity for the next build, with the groups priced from
    /// `scenario_probs`, the table's per-scenario probabilities as
    /// [`SchedContext::scenario_probs`] prices them: the solver workspace
    /// prices each pool miss's table once for the build and the stretch,
    /// builds through its own scratch, and the graph gets exact-size
    /// copies. Nothing of an earlier build, finished, over the cap or
    /// aborted, reaches the result.
    pub(crate) fn build_in(
        ctx: &SchedContext,
        schedule: &Schedule,
        scenario_probs: &[f64],
        cap: usize,
        meter: &mut WorkMeter,
        scratch: &mut BuildScratch,
    ) -> Result<Option<Self>, SchedError> {
        let words = ctx.scenarios().len().div_ceil(64);
        Self::build_with(
            ctx,
            schedule,
            scenario_probs,
            cap,
            meter,
            words,
            Some(scratch),
        )
    }

    /// The build with the walk's masks `width` words wide: a compile-time
    /// width for 1–4, the context's words read at run time above. The
    /// width must hold the context's mask words. Only the walk is compiled
    /// per width. Through a kept `scratch` ([`ScheduledGraph::build_in`])
    /// the graph copies the buffers it keeps; without one it builds
    /// through a fresh scratch and takes them.
    fn build_with(
        ctx: &SchedContext,
        schedule: &Schedule,
        scenario_probs: &[f64],
        cap: usize,
        meter: &mut WorkMeter,
        width: usize,
        scratch: Option<&mut BuildScratch>,
    ) -> Result<Option<Self>, SchedError> {
        let n = ctx.ctg().num_tasks();
        let kept = scratch.is_some();
        let mut fresh = BuildScratch::default();
        let BuildScratch {
            reduce,
            adj,
            store,
            walk,
            fill,
        } = scratch.unwrap_or(&mut fresh);
        reduce.reduce(ctx, schedule);
        adj.lay_out(ctx, schedule, &reduce.kept);
        store.reset(ctx.scenarios().len());
        let under_cap = match width {
            1 => enumerate_from::<1>(ctx, adj, store, walk, cap, meter),
            2 => enumerate_from::<2>(ctx, adj, store, walk, cap, meter),
            3 => enumerate_from::<3>(ctx, adj, store, walk, cap, meter),
            4 => enumerate_from::<4>(ctx, adj, store, walk, cap, meter),
            _ => enumerate_from::<0>(ctx, adj, store, walk, cap, meter),
        }?;
        if !under_cap {
            return Ok(None);
        }

        // Each minterm group's probability, evaluated once per *distinct*
        // condition mask, word by word: `mask_prob` is a pure function of
        // (mask content, table) — the same ascending-bit sum for equal
        // masks — so the group's value is bit-identical to what every
        // member would compute.
        let group_prob: Vec<f64> = store
            .group_words
            .chunks_exact(store.words)
            .map(|w| words_prob(w, scenario_probs))
            .collect();

        // The walk's node ranges bucketed by task, a stable counting sort
        // that keeps each task's ranges in pre-order.
        let mut node_off = vec![0u32; n + 1];
        for &(t, _) in &store.walk {
            node_off[t as usize + 1] += 1;
        }
        for i in 0..n {
            node_off[i + 1] += node_off[i];
        }
        fill.clear();
        fill.extend_from_slice(&node_off[..n]);
        let mut nodes = vec![NodeRange::default(); store.walk.len()];
        for &(t, node) in &store.walk {
            let at = &mut fill[t as usize];
            nodes[*at as usize] = node;
            *at += 1;
        }

        // Exact-size copies of a kept scratch's buffers, so a pooled graph
        // holds no spare capacity. A cold build's fresh scratch dies with
        // the call, so its graph takes the buffers as they are.
        fn emitted<T: Clone>(buf: &mut Vec<T>, kept: bool) -> Vec<T> {
            if kept {
                buf.to_vec()
            } else {
                std::mem::take(buf)
            }
        }
        Ok(Some(ScheduledGraph {
            edges: emitted(&mut reduce.kept, kept),
            scenarios: store.n_scen,
            frames: emitted(&mut store.frames, kept),
            paths: emitted(&mut store.paths, kept),
            keys: emitted(&mut store.keys, kept),
            group_words: emitted(&mut store.group_words, kept),
            group_prob,
            seq_lits: emitted(&mut store.seq_lits, kept),
            seqs: emitted(&mut store.seqs, kept),
            nodes,
            node_off,
            makespan: None,
            flat: OnceLock::new(),
        }))
    }

    /// The edges of the (reduced) scheduled graph.
    pub fn edges(&self) -> &[SEdge] {
        &self.edges
    }

    /// The enumerated valid paths, in canonical order.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = SPath<'_>> + Clone {
        (0..self.paths.len()).map(move |i| SPath { graph: self, i })
    }

    /// The `i`-th path in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn path(&self, i: usize) -> SPath<'_> {
        assert!(i < self.paths.len(), "path {i} out of range");
        SPath { graph: self, i }
    }

    /// Path `i`'s tasks from its last to its first: the chain of walk
    /// frames up from the one that emitted it.
    pub(crate) fn chain(&self, i: usize) -> impl Iterator<Item = TaskId> + '_ {
        let mut f = self.paths[i].frame;
        std::iter::from_fn(move || {
            let frame = self.frames.get(f as usize)?;
            f = frame.parent;
            Some(TaskId::new(frame.task as usize))
        })
    }

    /// Every path's [`SPath::stretched_delay`], in canonical order and
    /// with the same bits: each path's tasks are read along its frame
    /// chain into one reused buffer, so the flat copy is never laid out.
    pub(crate) fn stretched_delays<'a>(
        &'a self,
        ctx: &'a SchedContext,
        schedule: &'a Schedule,
        speeds: &'a SpeedAssignment,
    ) -> impl Iterator<Item = f64> + 'a {
        let mut tasks = Vec::new();
        self.paths.iter().enumerate().map(move |(i, rec)| {
            tasks.clear();
            tasks.extend(self.chain(i));
            tasks.reverse();
            stretched_delay(ctx, schedule, speeds, rec.delay, &tasks)
        })
    }

    /// The flat copy of every path's tasks and guards and every group's
    /// mask, laid out on the first call.
    fn flat(&self) -> &FlatPaths {
        self.flat.get_or_init(|| FlatPaths::lay_out(self))
    }

    /// Number of suffix slots a member may name: `len + 1` per distinct
    /// guard-literal sequence.
    pub(crate) fn suffix_slots(&self) -> usize {
        self.seq_lits.len() + self.seqs.len()
    }

    /// Per distinct guard-literal sequence, in first-occurrence order: its
    /// first suffix slot and its literals. Slot `first + k` stands for the
    /// suffix `lits[k..]`, for every `k` in `0..=lits.len()`; the slots of
    /// one sequence follow those of the previous one.
    pub(crate) fn guard_suffixes(&self) -> impl Iterator<Item = (usize, &[Literal])> {
        self.seqs
            .iter()
            .enumerate()
            .map(move |(j, &(s, e))| (s as usize + j, &self.seq_lits[s as usize..e as usize]))
    }

    /// The node ranges of `task`, in pre-order: they ascend, are disjoint
    /// and cover exactly the paths spanning `task`.
    pub(crate) fn span_ranges(&self, task: TaskId) -> &[NodeRange] {
        let t = task.index();
        &self.nodes[self.node_off[t] as usize..self.node_off[t + 1] as usize]
    }

    /// Every path's group and first suffix slot, in canonical order.
    pub(crate) fn path_keys(&self) -> &[PathKey] {
        &self.keys
    }

    /// Number of minterm groups.
    pub(crate) fn groups(&self) -> usize {
        self.group_prob.len()
    }

    /// Every minterm group's condition mask words, by group id.
    fn group_words(&self) -> std::slice::ChunksExact<'_, u64> {
        self.group_words.chunks_exact(self.scenarios.div_ceil(64))
    }

    /// The probability of minterm group `group` under the graph's table.
    pub(crate) fn group_prob(&self, group: u32) -> f64 {
        self.group_prob[group as usize]
    }

    /// The exact worst-case makespan of `schedule` at `speeds`, where
    /// `schedule` has the mapping (assignment and per-PE order) the graph
    /// was built from: the dynamic program of
    /// [`Solution::worst_case_makespan`](crate::Solution::worst_case_makespan)
    /// over the graph's reduced edges, with the same bits — every edge the
    /// reduction drops is dominated, in each scenario where it is active,
    /// by a route of edges active there. The DP's constraint layout is laid
    /// out on the first call and kept with the graph.
    pub fn worst_case_makespan(
        &mut self,
        ctx: &SchedContext,
        schedule: &Schedule,
        speeds: &SpeedAssignment,
    ) -> f64 {
        self.makespan_dp(ctx).worst_case(ctx, schedule, speeds)
    }

    /// The graph's worst-case-makespan layout, laid out on the first call.
    pub(crate) fn makespan_dp(&mut self, ctx: &SchedContext) -> &MakespanDp {
        self.makespan
            .get_or_insert_with(|| MakespanDp::lay_out(ctx, &self.edges))
    }

    /// The worst-case end-to-end delay: the maximum path delay.
    pub fn critical_delay(&self) -> f64 {
        self.paths.iter().map(|p| p.delay).fold(0.0, f64::max)
    }

    /// Recomputes the path probabilities under a new probability table,
    /// leaving topology, delays, conditions and guards untouched — the
    /// replacement for a full rebuild when only the estimates moved (the
    /// mapping, order and communication delays do not depend on `probs`).
    ///
    /// Evaluated once per minterm group, and bit-identical to a fresh
    /// [`ScheduledGraph::build`] under the same table: the same word-by-word
    /// sum as `mask_prob` on the same stored scenario masks.
    pub fn reweight(&mut self, ctx: &SchedContext, probs: &BranchProbs) {
        self.reweight_priced(&ctx.scenario_probs(probs));
    }

    /// [`ScheduledGraph::reweight`] from the table's per-scenario
    /// probabilities, already priced as [`SchedContext::scenario_probs`]
    /// prices them.
    pub(crate) fn reweight_priced(&mut self, scenario_probs: &[f64]) {
        let words = self.scenarios.div_ceil(64);
        for (p, w) in self
            .group_prob
            .iter_mut()
            .zip(self.group_words.chunks_exact(words))
        {
            *p = words_prob(w, scenario_probs);
        }
    }
}

/// The pre-reduction edge set of the scheduled graph: CTG edges with their
/// communication delays and guards, implied or-node waits, and same-PE
/// serialization pseudo-edges (mutually exclusive pairs excluded).
fn collect_edges(ctx: &SchedContext, schedule: &Schedule) -> Vec<SEdge> {
    let mut edges = Vec::new();
    collect_edges_into(ctx, schedule, &mut Vec::new(), &mut edges);
    edges
}

/// [`collect_edges`] into `edges`, with `present` as the dedup matrix.
fn collect_edges_into(
    ctx: &SchedContext,
    schedule: &Schedule,
    present: &mut Vec<u64>,
    edges: &mut Vec<SEdge>,
) {
    let ctg = ctx.ctg();
    let comm = ctx.platform().comm();

    // Presence bit-matrix so the "is there already an (a, b) edge?" dedup
    // checks are O(1) instead of a scan over the edge list — the same-PE
    // pass below asks for every ordered pair on every PE.
    let n = ctg.num_tasks();
    let words = n.div_ceil(64);
    present.clear();
    present.resize(n * words, 0);
    let bit = |u: TaskId, v: TaskId| (u.index() * words + v.index() / 64, 1u64 << (v.index() % 64));

    edges.clear();
    for (_, e) in ctg.edges() {
        let delay = comm.delay(
            schedule.pe_of(e.src()),
            schedule.pe_of(e.dst()),
            e.comm_kbytes(),
        );
        edges.push(SEdge {
            src: e.src(),
            dst: e.dst(),
            delay,
            guard: e.condition().map(|alt| Literal::new(e.src(), alt)),
            kind: SEdgeKind::Ctg,
        });
        let (w, m) = bit(e.src(), e.dst());
        present[w] |= m;
    }
    for &(fork, or_node) in ctx.activation().implied_or_deps() {
        let (w, m) = bit(fork, or_node);
        if present[w] & m == 0 {
            present[w] |= m;
            edges.push(SEdge {
                src: fork,
                dst: or_node,
                delay: 0.0,
                guard: None,
                kind: SEdgeKind::Implied,
            });
        }
    }
    // Same-PE serialization: earlier → later among non-exclusive pairs.
    for pe in ctx.platform().pes() {
        let order = schedule.pe_order(pe);
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (a, b) = (order[i], order[j]);
                if ctx.mutually_exclusive(a, b) {
                    continue;
                }
                let (w, m) = bit(a, b);
                if present[w] & m == 0 {
                    present[w] |= m;
                    edges.push(SEdge {
                        src: a,
                        dst: b,
                        delay: 0.0,
                        guard: None,
                        kind: SEdgeKind::Pseudo,
                    });
                }
            }
        }
    }
}

/// Exact worst-case makespan of a (mapping, order, speeds) solution: for
/// every scenario, a longest-path dynamic program over the scheduled
/// graph's constraint edges with stretched execution times, maximised
/// across scenarios. No path enumeration, no cap, no fallback estimate.
///
/// Lays out the *un-reduced* edge set ([`MakespanDp::lay_out`]) and runs
/// the loop once. Skipping the reduction keeps a one-off check cheap; a
/// pooled graph lays out its reduced edges once instead
/// ([`ScheduledGraph::worst_case_makespan`]), with the same bits.
pub(crate) fn worst_case_makespan_dp(
    ctx: &SchedContext,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
) -> f64 {
    MakespanDp::cold(ctx, schedule).worst_case(ctx, schedule, speeds)
}

/// The exact worst-case-makespan DP's constraint layout for one mapping:
/// every constraint edge filed under its destination with its source, its
/// fixed delay and the mask of the scenarios it constrains (both endpoints
/// active and the guard's alternative taken), precombined once, and a
/// topological order of the edges. Speeds enter only the loop
/// ([`MakespanDp::worst_case`]), so one layout serves every speed
/// assignment on the mapping.
#[derive(Debug, Clone)]
pub(crate) struct MakespanDp {
    /// Mask words per edge.
    words: usize,
    /// The tasks in a topological order of the edges.
    topo: Vec<u32>,
    /// `ins[in_off[t]..in_off[t + 1]]` are task `t`'s in-edges as
    /// `(source, delay)`, in edge order.
    in_off: Vec<u32>,
    ins: Vec<(u32, f64)>,
    /// In-edge `i`'s mask: `masks[i * words..(i + 1) * words]`.
    masks: Vec<u64>,
}

impl MakespanDp {
    /// The layout of `schedule`'s un-reduced edge set.
    pub(crate) fn cold(ctx: &SchedContext, schedule: &Schedule) -> Self {
        Self::lay_out(ctx, &collect_edges(ctx, schedule))
    }

    /// Lays out `edges`, which must form a DAG over the context's tasks.
    pub(crate) fn lay_out(ctx: &SchedContext, edges: &[SEdge]) -> Self {
        let n = ctx.ctg().num_tasks();
        let words = ctx.scenarios().len().div_ceil(64);
        let mut in_off = vec![0u32; n + 1];
        for e in edges {
            in_off[e.dst.index() + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
        }
        let mut fill = in_off[..n].to_vec();
        let mut ins = vec![(0u32, 0.0); edges.len()];
        let mut masks = vec![0u64; edges.len() * words];
        for e in edges {
            let at = &mut fill[e.dst.index()];
            let i = *at as usize;
            *at += 1;
            ins[i] = (e.src.index() as u32, e.delay);
            let (src, dst) = (ctx.task_mask(e.src).words(), ctx.task_mask(e.dst).words());
            // An unknown literal selects no scenario: its mask stays empty.
            let lit = match e.guard {
                None => None,
                Some(lit) => match ctx.literal_mask_ref(lit.branch(), lit.alt()) {
                    Some(m) => Some(m.words()),
                    None => continue,
                },
            };
            for (w, m) in masks[i * words..(i + 1) * words].iter_mut().enumerate() {
                *m = src[w] & dst[w] & lit.map_or(u64::MAX, |l| l[w]);
            }
        }
        // Depth-first post-order over the in-edges: a task is placed once
        // every source of its in-edges is.
        let mut topo = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let mut stack: Vec<(u32, u32)> = Vec::new();
        for root in 0..n as u32 {
            if placed[root as usize] {
                continue;
            }
            placed[root as usize] = true;
            stack.push((root, in_off[root as usize]));
            while let Some((t, next)) = stack.last_mut() {
                if *next == in_off[*t as usize + 1] {
                    topo.push(*t);
                    stack.pop();
                    continue;
                }
                let src = ins[*next as usize].0;
                *next += 1;
                if !placed[src as usize] {
                    placed[src as usize] = true;
                    stack.push((src, in_off[src as usize]));
                }
            }
        }
        debug_assert!({
            let mut pos = vec![0; n];
            for (i, &t) in topo.iter().enumerate() {
                pos[t as usize] = i;
            }
            edges
                .iter()
                .all(|e| pos[e.src.index()] < pos[e.dst.index()])
        });
        MakespanDp {
            words,
            topo,
            in_off,
            ins,
            masks,
        }
    }

    /// The worst-case makespan of a schedule with the layout's mapping at
    /// `speeds`: each task's finish in every scenario where it runs, its
    /// start being the latest of its in-edges' source finish plus delay
    /// over the scenarios each edge's mask names, maximised over tasks and
    /// scenarios. `O(V·S + Σ|mask|)`: the scenarios run side by side
    /// rather than one DP per scenario, yet each scenario's finish takes
    /// the max over the same sums a scenario-at-a-time DP would, so the
    /// bits are the same. Any topological order gives them too: a task's
    /// finish reads only its sources', and `max` is exact.
    pub(crate) fn worst_case(
        &self,
        ctx: &SchedContext,
        schedule: &Schedule,
        speeds: &SpeedAssignment,
    ) -> f64 {
        let n_scen = ctx.scenarios().len();
        let profile = ctx.platform().profile();
        // `fin[t * n_scen + s]`: task `t`'s finish in scenario `s`, written
        // before any read (an edge's mask holds only scenarios where its
        // source is active, and the source precedes it in `topo`).
        let mut fin = vec![0.0_f64; self.topo.len() * n_scen];
        let mut start = vec![0.0_f64; n_scen];
        let mut worst: f64 = 0.0;
        for &t in &self.topo {
            let (t, task) = (t as usize, TaskId::new(t as usize));
            let active = ctx.task_mask(task);
            for s in active.iter() {
                start[s] = 0.0;
            }
            let edges = self.in_off[t] as usize..self.in_off[t + 1] as usize;
            for (&(src, delay), mask) in self.ins[edges.clone()]
                .iter()
                .zip(self.masks[edges.start * self.words..].chunks_exact(self.words))
            {
                let src_fin = &fin[src as usize * n_scen..][..n_scen];
                for s in word_bits(mask) {
                    start[s] = start[s].max(src_fin[s] + delay);
                }
            }
            let exec = profile.wcet(t, schedule.pe_of(task)) / speeds.speed(task);
            let row = &mut fin[t * n_scen..][..n_scen];
            for s in active.iter() {
                row[s] = start[s] + exec;
                worst = worst.max(row[s]);
            }
        }
        worst
    }
}

/// Every buffer one graph build writes besides the graph's own: the
/// reduction's, the walk's adjacency and links, the path store (the walk's
/// frames, one record and key per path, the groups' flat words and their
/// hash map, the guard sequences and their trie, the node ranges), and
/// the walk's levels, link stack and guard trail. No path's tasks or
/// guards are copied anywhere: a path is the frame that emitted it. The
/// build prices nothing itself: it weights its groups from the
/// per-scenario table it is given. The solver workspace keeps one and
/// builds every pool miss through it, so a warm build allocates only the
/// exact-size buffers the graph keeps. Each build resets every part it
/// reads before reading it, so nothing of an earlier build, finished,
/// over the cap or aborted mid-walk, reaches the next one. A clone starts
/// empty: between builds the buffers hold capacity, not state.
#[derive(Default)]
pub(crate) struct BuildScratch {
    reduce: Reduction,
    adj: OutEdges,
    store: PathStore,
    walk: Walk,
    /// The node-range bucketing's per-task write cursors.
    fill: Vec<u32>,
}

impl Clone for BuildScratch {
    fn clone(&self) -> Self {
        BuildScratch::default()
    }
}

impl std::fmt::Debug for BuildScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildScratch").finish_non_exhaustive()
    }
}

/// Whether every scenario of `a` is in `b`, over equal-length words.
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// Whether `a` and `b`, of equal length, hold the same words: compared in
/// line with no early exit, where a slice `==` calls the C library's
/// `bcmp` on every emission.
fn same_words(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).fold(0, |acc, (&x, &y)| acc | (x ^ y)) == 0
}

/// The transitive reduction's buffers: the collected edges and their
/// dedup matrix, a CSR out-adjacency over them with each edge's scenario
/// words, every task's start time, the search's visit marks and stack,
/// and the kept edges.
#[derive(Default)]
struct Reduction {
    present: Vec<u64>,
    edges: Vec<SEdge>,
    /// `dst[off[t]..off[t + 1]]` are task `t`'s out-edges' destinations;
    /// out-edge `i`'s words `ok[i * words..(i + 1) * words]` are the
    /// scenarios that run its destination and take its guard's
    /// alternative (every scenario that runs it, when unguarded).
    off: Vec<u32>,
    at: Vec<u32>,
    dst: Vec<u32>,
    ok: Vec<u64>,
    starts: Vec<f64>,
    /// `mark[t]` equals the current search's epoch once the search has
    /// met `t`, so no search clears the marks of the one before.
    mark: Vec<u32>,
    stack: Vec<u32>,
    both: Vec<u64>,
    /// The reduced edge set, in collection order.
    kept: Vec<SEdge>,
}

impl Reduction {
    /// Collects `schedule`'s edges and keeps, in `kept`, the scheduled
    /// graph's edge set after the scenario-aware transitive reduction: a
    /// zero-delay pseudo/implied edge (u, v) is redundant only when a
    /// longer route u→…→v exists that constrains v in *every scenario
    /// where both u and v execute* — then the route's delay constraint is
    /// present whenever the edge's is, and dominates it. So every
    /// intermediate node must execute in each of those scenarios, and
    /// every guarded edge of the route must have its alternative taken in
    /// each: an or-node that joins one alternative of each of two forks
    /// runs whenever either alternative is taken, yet its guarded in-edge
    /// from the first fork is off when only the second one's is taken, and
    /// a same-PE edge from that fork to a successor of the join is then
    /// binding. CTG edges are always kept (they carry guards and
    /// communication delays).
    ///
    /// Each edge's guard and destination are precombined into one word
    /// slice once per build, with the adjacency: a route may step along an
    /// edge exactly when both ends' common scenarios lie in it, since they
    /// lie in `v`'s mask anyway and must lie in any intermediate's. A
    /// search is a reachability question, so its visit order cannot change
    /// its verdict.
    fn reduce(&mut self, ctx: &SchedContext, schedule: &Schedule) {
        let Reduction {
            present,
            edges,
            off,
            at,
            dst,
            ok,
            starts,
            mark,
            stack,
            both,
            kept,
        } = self;
        let n = ctx.ctg().num_tasks();
        let words = ctx.scenarios().len().div_ceil(64);
        collect_edges_into(ctx, schedule, present, edges);
        off.clear();
        off.resize(n + 1, 0);
        for e in edges.iter() {
            off[e.src.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        at.clear();
        at.extend_from_slice(&off[..n]);
        dst.clear();
        dst.resize(edges.len(), 0);
        ok.clear();
        ok.resize(edges.len() * words, 0);
        for e in edges.iter() {
            let i = at[e.src.index()] as usize;
            at[e.src.index()] += 1;
            dst[i] = e.dst.index() as u32;
            let o = &mut ok[i * words..(i + 1) * words];
            o.copy_from_slice(ctx.task_mask(e.dst).words());
            if let Some(lit) = e.guard {
                // An unknown literal selects no scenario.
                match ctx.literal_mask_ref(lit.branch(), lit.alt()) {
                    Some(m) => o.iter_mut().zip(m.words()).for_each(|(o, &m)| *o &= m),
                    None => o.fill(0),
                }
            }
        }
        starts.clear();
        starts.extend((0..n).map(|t| schedule.start(TaskId::new(t))));
        // Start times are monotone along every edge of a
        // precedence-respecting schedule (dependency, implied-wait and
        // same-PE-order edges all point forward in time), so a node
        // starting strictly after `v` can never lie on a route to `v` and
        // the search may skip it. Verified once per build — if a schedule
        // ever violated monotonicity the prune is disabled and the search
        // degrades to the exhaustive form with the same result.
        let monotone = edges
            .iter()
            .all(|e| starts[e.src.index()] <= starts[e.dst.index()]);

        mark.clear();
        mark.resize(n, 0);
        let mut epoch = 0;
        kept.clear();
        for e in edges.iter() {
            if e.kind == SEdgeKind::Ctg {
                kept.push(e.clone());
                continue;
            }
            let (u, v) = (e.src, e.dst);
            both.clear();
            both.extend(
                (ctx.task_mask(u).words().iter())
                    .zip(ctx.task_mask(v).words())
                    .map(|(a, b)| a & b),
            );
            let (u, v) = (u.index(), v.index());
            let vstart = starts[v];
            epoch += 1;
            // Whether out-edge `i` is a step of a route: `both` lies in its
            // words, and it ends at `v` or at an intermediate other than
            // `u` that can still reach `v` and was not met before.
            let step = |i: usize, x: usize, mark: &[u32]| {
                (x == v || x != u && mark[x] != epoch && !(monotone && starts[x] > vstart))
                    && subset(both, &ok[i * words..(i + 1) * words])
            };
            // Out-edge indices with their destinations.
            let out = |w: usize| {
                let edges = off[w] as usize..off[w + 1] as usize;
                edges.clone().zip(dst[edges].iter().map(|&x| x as usize))
            };
            // Reach v from u through ≥1 intermediate.
            stack.clear();
            for (i, x) in out(u) {
                if x != v && step(i, x, mark) {
                    mark[x] = epoch;
                    stack.push(x as u32);
                }
            }
            let mut covered = false;
            'search: while let Some(w) = stack.pop() {
                for (i, x) in out(w as usize) {
                    if step(i, x, mark) {
                        if x == v {
                            covered = true;
                            break 'search;
                        }
                        mark[x] = epoch;
                        stack.push(x as u32);
                    }
                }
            }
            if !covered {
                kept.push(e.clone());
            }
        }
    }
}

/// The scheduled graph's out-edges as the walk reads them: `t`'s are
/// `start[t]..start[t + 1]`, by descending destination, with each field
/// in an array of its own, and the walk's precombined masks in `mask` at
/// its width. Also every task's execution time and in-degree, and which
/// tasks are links.
#[derive(Default)]
struct OutEdges {
    by_src: Vec<u32>,
    start: Vec<u32>,
    dst: Vec<TaskId>,
    delay: Vec<f64>,
    guard: Vec<Option<Literal>>,
    mask: Vec<u64>,
    exec: Vec<f64>,
    indeg: Vec<u32>,
    /// Whether task `t` is a link: its only out-edge is unguarded and the
    /// edge's mask holds `t`'s whole activation mask. Every frame's
    /// condition lies in its task's mask, so a link's frame keeps its
    /// whole condition across the edge: it emits no path, and its one
    /// child has its condition.
    link: Vec<bool>,
}

impl OutEdges {
    /// Lays out `edges`, the reduced edges of `schedule`'s mapping.
    fn lay_out(&mut self, ctx: &SchedContext, schedule: &Schedule, edges: &[SEdge]) {
        let n = ctx.ctg().num_tasks();
        let by_src = &mut self.by_src;
        by_src.clear();
        by_src.extend(0..edges.len() as u32);
        by_src.sort_unstable_by_key(|&i| {
            let e = &edges[i as usize];
            (e.src, std::cmp::Reverse(e.dst))
        });
        // No two edges share a (src, dst) pair — the CTG rejects duplicate
        // edges and `collect_edges` adds an implied or pseudo edge only
        // where none exists — so no two paths share a task sequence and
        // the walk's order is total.
        debug_assert!(by_src.windows(2).all(|w| {
            let (a, b) = (&edges[w[0] as usize], &edges[w[1] as usize]);
            a.src != b.src || a.dst > b.dst
        }));
        self.start.clear();
        self.start.resize(n + 1, 0);
        self.indeg.clear();
        self.indeg.resize(n, 0);
        for e in edges {
            self.start[e.src.index() + 1] += 1;
            self.indeg[e.dst.index()] += 1;
        }
        for i in 0..n {
            self.start[i + 1] += self.start[i];
        }
        let sorted = || by_src.iter().map(|&i| &edges[i as usize]);
        self.dst.clear();
        self.dst.extend(sorted().map(|e| e.dst));
        self.delay.clear();
        self.delay.extend(sorted().map(|e| e.delay));
        self.guard.clear();
        self.guard.extend(sorted().map(|e| e.guard));
        let profile = ctx.platform().profile();
        self.exec.clear();
        self.exec
            .extend((0..n).map(|t| profile.wcet(t, schedule.pe_of(TaskId::new(t)))));
    }
}

/// Paths as one enumeration emits them, in canonical order: each path's
/// emitting frame among the walk's frames, and the minterm groups and
/// guard sequences interned as the paths arrive — a path's group is the
/// first-occurrence id of its condition mask, and `group_words` holds each
/// distinct mask once; likewise its sequence id and `seq_lits`/`seqs` for
/// its guards' literals (fork positions dropped). Masks are compared
/// word by word in line ([`same_words`]), with no C library call per
/// emission. The walk's node ranges are recorded in pre-order with their
/// tasks.
#[derive(Default)]
struct PathStore {
    /// The context's scenario count, and its mask words.
    n_scen: usize,
    words: usize,
    /// Every frame the walk took, in the order it took them.
    frames: Vec<Frame>,
    paths: Vec<PathRec>,
    keys: Vec<PathKey>,
    /// Group `g`'s condition mask: `group_words[g * words..(g + 1) * words]`.
    group_words: Vec<u64>,
    /// The FNV-1a of a group's words to the latest group with that hash,
    /// and per group the one before it with the same hash (`u32::MAX`:
    /// none).
    by_hash: HashMap<u64, u32, BuildFnv>,
    same_hash: Vec<u32>,
    seq_lits: Vec<Literal>,
    seqs: Vec<(u32, u32)>,
    /// The trie over the walk's guard trails that interns the sequences:
    /// node 0 spells the empty sequence, and a node's children extend its
    /// sequence by one literal each.
    trie: Vec<TrieNode>,
    /// `(task, range)` per node range, in pre-order.
    walk: Vec<(u32, NodeRange)>,
}

/// A node of [`PathStore::trie`]. Trie nodes spell distinct literal
/// sequences; a node's sequence id is given when a path ending at it is
/// first emitted.
struct TrieNode {
    /// The literal on the edge from the parent (unread at the root).
    lit: Literal,
    /// The first child and the next sibling (`u32::MAX`: none).
    first_child: u32,
    next: u32,
    /// The sequence id (`u32::MAX` until a path spelling it is emitted).
    seq: u32,
}

impl TrieNode {
    /// A childless node without a sequence id, before sibling `next`.
    fn new(lit: Literal, next: u32) -> Self {
        TrieNode {
            lit,
            first_child: u32::MAX,
            next,
            seq: u32::MAX,
        }
    }
}

impl PathStore {
    /// Empties the store for a context of `n_scen` scenarios, leaving the
    /// trie with its root only.
    fn reset(&mut self, n_scen: usize) {
        self.n_scen = n_scen;
        self.words = n_scen.div_ceil(64);
        self.frames.clear();
        self.paths.clear();
        self.keys.clear();
        self.group_words.clear();
        self.by_hash.clear();
        self.same_hash.clear();
        self.seq_lits.clear();
        self.seqs.clear();
        self.trie.clear();
        self.trie
            .push(TrieNode::new(Literal::new(TaskId::new(0), 0), u32::MAX));
        self.walk.clear();
    }

    /// The trie node spelling `parent`'s sequence followed by `lit`.
    fn trie_child(&mut self, parent: u32, lit: Literal) -> u32 {
        let mut c = self.trie[parent as usize].first_child;
        while c != u32::MAX {
            let node = &self.trie[c as usize];
            if node.lit == lit {
                return c;
            }
            c = node.next;
        }
        let c = self.trie.len() as u32;
        let next = std::mem::replace(&mut self.trie[parent as usize].first_child, c);
        self.trie.push(TrieNode::new(lit, next));
        c
    }

    /// Group `g`'s condition mask words.
    fn group(&self, g: u32) -> &[u64] {
        &self.group_words[g as usize * self.words..][..self.words]
    }

    /// The group of the condition mask `cond`, opening a new one for a
    /// mask not met before.
    fn intern(&mut self, cond: &[u64]) -> u32 {
        let mut hasher = Fnv::default();
        cond.iter().for_each(|&w| hasher.write_u64(w));
        let hash = hasher.finish();
        let latest = self.by_hash.get(&hash).copied().unwrap_or(u32::MAX);
        let mut g = latest;
        while g != u32::MAX {
            if same_words(self.group(g), cond) {
                return g;
            }
            g = self.same_hash[g as usize];
        }
        let g = self.same_hash.len() as u32;
        self.same_hash.push(latest);
        self.by_hash.insert(hash, g);
        self.group_words.extend_from_slice(cond);
        g
    }

    /// Emits the path of `frame`, joining the group of its condition mask
    /// `cond` (the context's words) and the sequence its trie node spells,
    /// or opening new ones; `lits` are its guards' literals, in path order.
    /// Most paths share the previous path's group, which is checked before
    /// the map.
    fn push(&mut self, frame: u32, lits: &[Literal], trie: u32, cond: &[u64], delay: f64) {
        let group = match self.keys.last() {
            Some(k) if same_words(self.group(k.group), cond) => k.group,
            _ => self.intern(cond),
        };
        let seq = match self.trie[trie as usize].seq {
            u32::MAX => {
                let j = self.seqs.len() as u32;
                self.trie[trie as usize].seq = j;
                let s = self.seq_lits.len() as u32;
                self.seq_lits.extend_from_slice(lits);
                self.seqs.push((s, self.seq_lits.len() as u32));
                j
            }
            j => j,
        };
        // Sequence `j`'s suffix slots follow the `len + 1` slots of each
        // earlier sequence.
        let slot = self.seqs[seq as usize].0 + seq;
        self.paths.push(PathRec { frame, delay });
        self.keys.push(PathKey { group, slot });
    }
}

/// The walk's state: a level per branching task of the current prefix,
/// the levels' condition masks by depth, the walk nodes of the prefix's
/// links, the literals of the prefix's guards, each task's latest walk
/// node, and the taken frame's covered scenarios.
#[derive(Default)]
struct Walk {
    levels: Vec<Level>,
    /// Depth `d`'s condition mask: `masks[d * w..(d + 1) * w]` at the
    /// walk's width `w`, zero-padded above the context's words. A chain
    /// of links and the frame that ends it share one depth.
    masks: Vec<u64>,
    /// The walk nodes of the prefix's links, in prefix order: a level's
    /// links are those above its mark, and close with its node.
    links: Vec<u32>,
    /// The guard trail, which interns the prefix's guard sequence.
    trail: Vec<Literal>,
    /// Each task's latest walk node (`u32::MAX`: none yet).
    last_node: Vec<u32>,
    covered: Vec<u64>,
}

/// One branching task of the walk's current prefix (a frame with
/// out-edges that the walk does not step through as a link), at the
/// depth of its index in [`Walk::levels`]: its condition mask is at that
/// depth in [`Walk::masks`]. The links that lead to it from the level
/// above, the level's *chain*, share its condition and get no level of
/// their own.
#[derive(Clone, Copy)]
struct Level {
    /// The level's frame, an index into [`PathStore::frames`]: a frame
    /// taken below this level names it as its parent.
    frame: u32,
    /// Out-edges `first..cursor` (`first` is `start[task]`) are still to
    /// descend through, the last one first: by ascending destination.
    first: u32,
    cursor: u32,
    /// The prefix's nominal delay up to and including the task.
    delay: f64,
    /// The [`PathStore::trie`] node spelling the literals of the prefix's
    /// guards, this node's own included.
    trie: u32,
    /// The level's walk node, an index into [`PathStore::walk`].
    node: u32,
    /// The guard trail's length before its chain's guard: only the
    /// chain's first frame can have one, since a link's edge has none.
    trail: u32,
    /// [`Walk::links`]'s length before its chain's links.
    links: u32,
}

/// The next chain of frames the walk takes: its first frame's task, the
/// guard of the edge into it, its trie node and its delay, and whether its
/// condition holds a scenario. Only a root's condition can be empty: a
/// descent skips a child whose condition is.
struct Chain {
    task: usize,
    guard: Option<Literal>,
    trie: u32,
    delay: f64,
    live: bool,
}

/// Charges one walk step: counted in `units` on an unlimited meter, which
/// the walk charges once at its end, and charged at once on a budgeted
/// one, so an abort lands on the exact crossing step.
fn step(meter: &mut WorkMeter, unlimited: bool, units: &mut u64) -> Result<(), SchedError> {
    if unlimited {
        *units += 1;
        Ok(())
    } else {
        meter.charge(1)
    }
}

/// Closes walk node `node` and the link nodes `links` at the paths
/// emitted so far, `hi`: their subtrees are done.
fn close_nodes(walk: &mut [(u32, NodeRange)], node: u32, links: &[u32], hi: u32) {
    walk[node as usize].1.hi = hi;
    for &l in links {
        walk[l as usize].1.hi = hi;
    }
}

/// Depth-first path enumeration from every root, ascending, over a stack
/// of levels. Taking a frame charges one unit. A link's frame (see
/// [`OutEdges::link`]) then charges its edge and takes its child at once,
/// with the same condition: it emits nothing, runs no covered pass and
/// gets no level. Any other frame ends the chain of links it was reached
/// through. A sink (no out-edge) emits the prefix for its whole condition
/// and closes at once. A branching frame charges one unit per out-edge in
/// CSR order while it ORs the scenarios the extensions keep, emits the
/// prefix for the scenarios none keeps, and becomes the deepest level.
/// Each step after that descends through the deepest level's next live
/// out-edge, recomputing that child's mask with one AND, or pops the
/// level once its cursor is spent. Each task's out-edges are sorted by
/// descending destination and the cursor counts down, so children are
/// taken by ascending destination and a prefix is emitted before its
/// extensions: the paths come out in canonical order — ascending task
/// sequence — with no sort. Returns `Ok(false)` once more than `cap`
/// paths have been emitted, leaving the emitted paths in `store`. Of the
/// build, this walk alone is compiled per mask width: `W` words, or the
/// context's words read at run time for `W` = 0. It first lays out each
/// edge's mask at that width, and finds the links.
///
/// A path's tasks, guards, delay and condition mask depend only on its
/// own prefix, and under the cap every frame and edge is charged once
/// whatever the sibling order, so the meter charge is the sum over the
/// whole tree. A link charges its frame and then its edge, as a level of
/// one out-edge would, so a budgeted meter aborts on the same step. Over
/// the cap the walk stops at the first overflowing path, and the charge
/// is what it spent until then.
///
/// Every frame the walk takes is recorded with its task and its parent:
/// the previous link's frame inside a chain, else the frame of the
/// deepest level when it is taken, so a path is just the frame that
/// emitted it. The literals of the current prefix's guards live in a
/// trail pushed when a chain is taken and popped when it closes, from
/// which the store interns a new guard sequence. Every frame is a walk
/// node, and a node closes, its range ending at the paths emitted so far,
/// when its subtree is done: a sink's at once, a branching frame's when
/// its level pops, and a link's with the frame that ends its chain. A
/// node opens a new range of its task, or extends the task's previous one
/// (see [`NodeRange`]): that node has closed, since a path holds the task
/// once.
fn enumerate_from<const W: usize>(
    ctx: &SchedContext,
    adj: &mut OutEdges,
    store: &mut PathStore,
    walk: &mut Walk,
    cap: usize,
    meter: &mut WorkMeter,
) -> Result<bool, SchedError> {
    let words = store.words;
    let w = if W == 0 { words } else { W };
    debug_assert!(w >= words);
    let n = adj.exec.len();

    // Each edge's precombined mask: the destination's activation mask and
    // the guard's literal mask (empty for an unknown literal), the
    // scenarios a prefix keeps by taking the edge, so a visited edge costs
    // one AND.
    adj.mask.clear();
    adj.mask.resize(adj.dst.len() * w, 0);
    for (e, (&dst, guard)) in adj.dst.iter().zip(&adj.guard).enumerate() {
        let mask = &mut adj.mask[e * w..e * w + words];
        mask.copy_from_slice(ctx.task_mask(dst).words());
        if let Some(lit) = guard {
            match ctx.literal_mask_ref(lit.branch(), lit.alt()) {
                Some(l) => {
                    for (m, &x) in mask.iter_mut().zip(l.words()) {
                        *m &= x;
                    }
                }
                None => mask.fill(0),
            }
        }
    }
    adj.link.clear();
    adj.link.extend((0..n).map(|t| {
        let e = adj.start[t] as usize;
        adj.start[t + 1] as usize == e + 1
            && adj.guard[e].is_none()
            && subset(
                ctx.task_mask(TaskId::new(t)).words(),
                &adj.mask[e * w..][..w],
            )
    }));
    let adj = &*adj;

    let Walk {
        levels,
        masks,
        links,
        trail,
        last_node,
        covered,
    } = walk;
    levels.clear();
    links.clear();
    trail.clear();
    // A path holds each task once, so no prefix is deeper than `n`.
    masks.clear();
    masks.resize((n + 1) * w, 0);
    last_node.clear();
    last_node.resize(n, u32::MAX);
    covered.clear();
    covered.resize(w, 0);
    let covered = &mut covered[..w];

    // Unlimited meters (the common case: unbudgeted solves) accumulate the
    // step count locally and charge once at the end — the same total as
    // per-step charging, without a fallible call in the hot loop. Budgeted
    // meters keep the per-step charge so an abort reproduces the exact
    // crossing step.
    let unlimited = meter.is_unlimited();
    let mut units: u64 = 0;

    for root in (0..n).filter(|&t| adj.indeg[t] == 0) {
        masks[..words].copy_from_slice(ctx.task_mask(TaskId::new(root)).words());
        // A root whose mask is empty follows no link: it takes a level
        // whose covered pass and descent find nothing.
        let live = masks[..words].iter().any(|&x| x != 0);
        let mut next = Some(Chain {
            task: root,
            guard: None,
            trie: 0,
            delay: adj.exec[root],
            live,
        });
        loop {
            if let Some(Chain {
                mut task,
                guard,
                trie,
                mut delay,
                live,
            }) = next.take()
            {
                // The chain's frames share the depth below the deepest
                // level, whose frame is the first one's parent, and its
                // condition mask there.
                let d = levels.len();
                let mut parent = levels.last().map_or(u32::MAX, |l| l.frame);
                let (chain_trail, chain_links) = (trail.len() as u32, links.len() as u32);
                if let Some(guard) = guard {
                    trail.push(guard);
                }
                let k = trail.len() as u32;
                let emitted = store.paths.len() as u32;
                let (taken, node) = loop {
                    step(meter, unlimited, &mut units)?;
                    let taken = store.frames.len() as u32;
                    store.frames.push(Frame {
                        task: task as u32,
                        parent,
                    });
                    // When the task's previous node's range ends where this
                    // one starts and decides as many guards, the two share
                    // one range.
                    let last = &mut last_node[task];
                    match store.walk.get(*last as usize) {
                        Some(&(_, prev)) if prev.hi == emitted && prev.k == k => {}
                        _ => {
                            *last = store.walk.len() as u32;
                            let range = NodeRange {
                                lo: emitted,
                                hi: emitted,
                                k,
                            };
                            store.walk.push((task as u32, range));
                        }
                    }
                    if !(live && adj.link[task]) {
                        break (taken, *last);
                    }
                    step(meter, unlimited, &mut units)?;
                    links.push(*last);
                    let e = adj.start[task] as usize;
                    let dst = adj.dst[e].index();
                    delay = delay + adj.delay[e] + adj.exec[dst];
                    (parent, task) = (taken, dst);
                };
                let cond = &masks[d * w..(d + 1) * w];
                let edges = adj.start[task]..adj.start[task + 1];
                if edges.is_empty() {
                    // A sink: the path ends here in every scenario of its
                    // condition, and the frame's subtree is done, and its
                    // chain's: their nodes' ranges end here.
                    if live {
                        store.push(taken, trail, trie, &cond[..words], delay);
                        if store.paths.len() > cap {
                            meter.charge(units)?;
                            return Ok(false);
                        }
                    }
                    let hi = store.paths.len() as u32;
                    close_nodes(&mut store.walk, node, &links[chain_links as usize..], hi);
                    links.truncate(chain_links as usize);
                    trail.truncate(chain_trail as usize);
                } else {
                    // Charge every out-edge, tracking which of the frame's
                    // scenarios at least one extension keeps.
                    covered.fill(0);
                    for e in edges.clone() {
                        step(meter, unlimited, &mut units)?;
                        let edge = &adj.mask[e as usize * w..][..w];
                        for ((c, &x), &y) in covered.iter_mut().zip(cond).zip(edge) {
                            *c |= x & y;
                        }
                    }
                    // Scenarios in which the path effectively *ends here*:
                    // every successor is deactivated. The task's finish
                    // time is a makespan candidate in those scenarios, so
                    // the prefix is a real worst-case path and must be
                    // emitted (without this, a chain ending at a non-sink
                    // task whose continuations are all
                    // scenario-inconsistent would escape the deadline
                    // analysis).
                    let mut any = 0;
                    for (c, &x) in covered.iter_mut().zip(cond) {
                        *c = x & !*c;
                        any |= *c;
                    }
                    if any != 0 {
                        store.push(taken, trail, trie, &covered[..words], delay);
                        if store.paths.len() > cap {
                            meter.charge(units)?;
                            return Ok(false);
                        }
                    }
                    levels.push(Level {
                        frame: taken,
                        first: edges.start,
                        cursor: edges.end,
                        delay,
                        trie,
                        node,
                        trail: chain_trail,
                        links: chain_links,
                    });
                }
            }
            let Some(d) = levels.len().checked_sub(1) else {
                break;
            };
            let top = &mut levels[d];
            let (upper, lower) = masks.split_at_mut((d + 1) * w);
            let (cond, child) = (&upper[d * w..], &mut lower[..w]);
            while top.cursor > top.first {
                top.cursor -= 1;
                let e = top.cursor as usize;
                let mut any = 0;
                let edge = &adj.mask[e * w..][..w];
                for ((c, &x), &y) in child.iter_mut().zip(cond).zip(edge) {
                    *c = x & y;
                    any |= *c;
                }
                if any == 0 {
                    continue;
                }
                let guard = adj.guard[e];
                // Every scheduled-graph guard names the source of its CTG
                // edge: the level's task.
                debug_assert!(guard.is_none_or(|lit| {
                    lit.branch().index() == store.frames[top.frame as usize].task as usize
                }));
                let trie = match guard {
                    Some(lit) => store.trie_child(top.trie, lit),
                    None => top.trie,
                };
                let dst = adj.dst[e].index();
                next = Some(Chain {
                    task: dst,
                    guard,
                    trie,
                    delay: top.delay + adj.delay[e] + adj.exec[dst],
                    live: true,
                });
                break;
            }
            if next.is_none() {
                // The level's subtree is done, and its chain's: their
                // nodes' ranges end here.
                let hi = store.paths.len() as u32;
                close_nodes(&mut store.walk, top.node, &links[top.links as usize..], hi);
                links.truncate(top.links as usize);
                trail.truncate(top.trail as usize);
                levels.pop();
            }
        }
    }
    meter.charge(units)?;
    Ok(true)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dls::dls_schedule;
    use crate::test_util::{chain_context, example1_context};

    #[test]
    fn chain_has_single_path() {
        let (ctx, probs, [a, c, d]) = chain_context(60.0);
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 1000).unwrap();
        assert_eq!(g.paths().len(), 1);
        let p = g.path(0);
        assert_eq!(p.tasks(), [a, c, d]);
        assert!((p.delay() - 6.0).abs() < 1e-9); // 3 tasks × wcet 2, same PE
        assert!((p.prob() - 1.0).abs() < 1e-12);
        assert!(p.cond().is_full());
        assert!((g.critical_delay() - s.makespan()).abs() < 1e-9);
    }

    #[test]
    fn example1_paths_have_conditions() {
        let (ctx, probs, ids) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        let [_, _, _, t4, _, t6, t7, _] = ids;
        // No valid path contains two mutually exclusive tasks.
        for p in g.paths() {
            assert!(!(p.spans(t4) && p.spans(t6)));
            assert!(!(p.spans(t6) && p.spans(t7)));
            assert!(p.prob() > 0.0);
        }
        // Some path through t6 exists with probability 0.25.
        let p6 = g.paths().find(|p| p.spans(t6)).unwrap();
        assert!((p6.prob() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prob_after_counts_pending_forks_only() {
        let (ctx, probs, ids) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        let [t1, _, t3, _, t5, t6, _, _] = ids;
        // Find a pure CTG path t1→t3→t5→t6 style (may include pseudo hops).
        let p = g
            .paths()
            .find(|p| p.spans(t6) && p.spans(t5) && p.spans(t3) && p.spans(t1))
            .expect("a path through the a2·b1 arm exists");
        // After t6 every fork on the path is decided.
        assert!((p.prob_after(t6, &probs) - 1.0).abs() < 1e-12);
        // Before t3 both forks are pending (prob 0.25) unless extra guards
        // from pseudo edges appear; at minimum it is ≤ 0.5.
        assert!(p.prob_after(t1, &probs) <= 0.5 + 1e-12);
    }

    #[test]
    fn critical_delay_matches_makespan() {
        let (ctx, probs, _) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        // The worst-case path delay bounds the schedule makespan.
        assert!(g.critical_delay() + 1e-9 >= s.makespan());
    }

    #[test]
    fn cap_triggers_fallback() {
        let (ctx, probs, _) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert!(ScheduledGraph::build(&ctx, &s, &probs, 1).is_none());
    }

    #[test]
    fn reweight_matches_rebuild_bitwise() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, ..] = ids;
        let s = dls_schedule(&ctx, &probs).unwrap();
        let mut skew = probs.clone();
        skew.set(t3, vec![0.8, 0.2]).unwrap();

        let mut g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        g.reweight(&ctx, &skew);
        let fresh = ScheduledGraph::build(&ctx, &s, &skew, 10_000).unwrap();
        assert_eq!(g.paths().len(), fresh.paths().len());
        for (a, b) in g.paths().zip(fresh.paths()) {
            assert_eq!(a.tasks(), b.tasks());
            assert_eq!(a.delay().to_bits(), b.delay().to_bits());
            assert_eq!(a.prob().to_bits(), b.prob().to_bits(), "path prob diverged");
        }
    }

    /// Asserts that two builds hold the same graph, bit for bit.
    fn assert_same_graph(a: &ScheduledGraph, b: &ScheduledGraph, label: &str) {
        assert_eq!(a.edges.len(), b.edges.len(), "{label}: edge count");
        for (x, y) in a.edges.iter().zip(&b.edges) {
            assert_eq!(
                (x.src, x.dst, x.guard, x.kind),
                (y.src, y.dst, y.guard, y.kind),
                "{label}: edge"
            );
            assert_eq!(x.delay.to_bits(), y.delay.to_bits(), "{label}: edge delay");
        }
        assert_eq!(a.paths().len(), b.paths().len(), "{label}: path count");
        for (p, q) in a.paths().zip(b.paths()) {
            assert_eq!(p.tasks(), q.tasks(), "{label}: path tasks");
            assert_eq!(p.guards(), q.guards(), "{label}: path guards");
            assert_eq!(p.delay().to_bits(), q.delay().to_bits(), "{label}: delay");
            assert_eq!(p.prob().to_bits(), q.prob().to_bits(), "{label}: prob");
        }
        assert_eq!(a.keys, b.keys, "{label}: path groups and slots");
        assert_eq!(a.scenarios, b.scenarios, "{label}: scenario count");
        assert_eq!(a.group_words, b.group_words, "{label}: group masks");
        assert_eq!(a.seq_lits, b.seq_lits, "{label}: guard sequences");
        assert_eq!(a.seqs, b.seqs, "{label}: guard sequence ranges");
        assert_eq!(a.nodes, b.nodes, "{label}: node ranges");
        assert_eq!(a.node_off, b.node_off, "{label}: node buckets");
    }

    /// Whether start times rise along every pre-reduction edge, which is
    /// when the reduction prunes its search by them.
    fn starts_rise_along_edges(ctx: &SchedContext, s: &Schedule) -> bool {
        collect_edges(ctx, s)
            .iter()
            .all(|e| s.start(e.src) <= s.start(e.dst))
    }

    /// The premise of the workspace's graph pool key: a graph depends on
    /// the schedule's assignment and per-PE order, not on its start times
    /// or its commit order. A schedule is built against two copies that
    /// keep the mapping — one with the commit order reversed and the
    /// starts shifted, one with the starts negated so the reduction's
    /// prune switches off — and all three must agree on everything the
    /// graph holds, the enumeration charge and the over-the-cap verdict.
    #[test]
    fn graph_depends_on_the_mapping_only() {
        let (ex_ctx, ex_probs, _) = example1_context();
        let (mpeg_ctx, mpeg_probs) = crate::test_util::mpeg_context();
        for (name, ctx, probs) in [
            ("example1", &ex_ctx, &ex_probs),
            ("mpeg", &mpeg_ctx, &mpeg_probs),
        ] {
            let s = dls_schedule(ctx, probs).unwrap();
            let mut shifted = s.clone();
            shifted.task_order.reverse();
            for x in shifted.start.iter_mut().chain(shifted.finish.iter_mut()) {
                *x += 17.25;
            }
            let mut unordered = s.clone();
            for x in unordered.start.iter_mut() {
                *x = -*x;
            }
            assert_ne!(shifted.task_order, s.task_order, "{name}");
            assert!(starts_rise_along_edges(ctx, &s), "{name}");
            assert!(starts_rise_along_edges(ctx, &shifted), "{name}");
            assert!(!starts_rise_along_edges(ctx, &unordered), "{name}");

            let build = |s: &Schedule, cap: usize| {
                let mut meter = WorkMeter::unlimited();
                let g = ScheduledGraph::build_metered(ctx, s, probs, cap, &mut meter).unwrap();
                (g, meter.spent())
            };
            let (base, base_units) = build(&s, DEFAULT_PATH_CAP);
            let base = base.expect("under the default cap");
            let small_cap = base.paths().len() / 2;
            let (over, over_units) = build(&s, small_cap);
            assert!(over.is_none(), "{name}: half the paths must overflow");
            for (variant, copy) in [("shifted", &shifted), ("unordered", &unordered)] {
                let label = format!("{name} {variant}");
                let (g, units) = build(copy, DEFAULT_PATH_CAP);
                assert_same_graph(&base, &g.expect("under the default cap"), &label);
                assert_eq!(units, base_units, "{label}: enumeration charge");
                let (g, units) = build(copy, small_cap);
                assert!(g.is_none(), "{label}: over-the-cap verdict");
                assert_eq!(units, over_units, "{label}: charge over the cap");
            }
        }
    }

    /// The graphs the build tests build: Example 1, MPEG under DLS, HEFT
    /// and lookahead, cruise, WLAN, the Table 1 and Table 4/5 graphs, and
    /// fork-join, layered and 72-task fork-join TGFF graphs, each with its
    /// DLS schedule unless named otherwise.
    pub(crate) fn graph_cases() -> Vec<(String, SchedContext, BranchProbs, Schedule)> {
        use crate::scheduler::SchedulerKind;
        use ctg_workloads::{cruise, wlan};
        use tgff_gen::{table1_cases, table45_cases, Category, TgffConfig};
        let dls = |name: String, ctx: SchedContext, probs: BranchProbs| {
            let s = dls_schedule(&ctx, &probs).unwrap();
            (name, ctx, probs, s)
        };
        let tgff = |cfg: &TgffConfig, pes| {
            let generated = cfg.generate();
            let platform = cfg.generate_platform(&generated.ctg, pes);
            (
                SchedContext::new(generated.ctg, platform).unwrap(),
                generated.probs,
            )
        };
        let workload = |ctg: ctg_model::Ctg, platform| {
            let probs = BranchProbs::uniform(&ctg);
            (SchedContext::new(ctg, platform).unwrap(), probs)
        };
        let (ctx, probs, _) = example1_context();
        let mut cases = vec![dls("example1".into(), ctx, probs)];
        let (mpeg_ctx, mpeg_probs) = crate::test_util::mpeg_context();
        for kind in [
            SchedulerKind::Dls,
            SchedulerKind::Heft,
            SchedulerKind::Lookahead,
        ] {
            let plan = kind.solve(&mpeg_ctx, &mpeg_probs).unwrap();
            cases.push((
                format!("mpeg {}", kind.name()),
                mpeg_ctx.clone(),
                mpeg_probs.clone(),
                plan.schedule,
            ));
        }
        let ctg = cruise::cruise_ctg();
        let (ctx, probs) = workload(ctg.clone(), cruise::cruise_platform(&ctg));
        cases.push(dls("cruise".into(), ctx, probs));
        let ctg = wlan::wlan_ctg();
        let (ctx, probs) = workload(ctg.clone(), wlan::wlan_platform(&ctg));
        cases.push(dls("wlan".into(), ctx, probs));
        for (i, (cfg, pes)) in table1_cases().iter().enumerate() {
            let (ctx, probs) = tgff(cfg, *pes);
            cases.push(dls(format!("table1 graph {i}"), ctx, probs));
        }
        for (i, (cfg, pes)) in table45_cases().iter().enumerate() {
            let (ctx, probs) = tgff(cfg, *pes);
            cases.push(dls(format!("table4/5 graph {i}"), ctx, probs));
        }
        let (ctx, probs) = tgff(&TgffConfig::new(11, 24, 3, Category::ForkJoin), 3);
        cases.push(dls("fork-join".into(), ctx, probs));
        let (ctx, probs) = tgff(&TgffConfig::new(21, 20, 2, Category::Layered), 3);
        cases.push(dls("layered".into(), ctx, probs));
        let (ctx, probs) = tgff(&TgffConfig::new(79, 72, 6, Category::ForkJoin), 4);
        assert!(ctx.ctg().num_tasks() > 62);
        cases.push(dls("72-task fork-join".into(), ctx, probs));
        cases
    }

    /// One minterm group's `(path, suffix slot)` members of a task.
    pub(crate) type Run = Vec<(u32, u32)>;

    /// `task`'s spanning paths as a range scan meets them, grouped the
    /// way `CalculateSlack` groups them: one run per minterm group, in the
    /// order the scan first meets the group, each run's `(path, suffix
    /// slot)` members in the order the scan meets them.
    fn range_scan(g: &ScheduledGraph, task: TaskId) -> Vec<Run> {
        let mut runs: Vec<(u32, Run)> = Vec::new();
        for r in g.span_ranges(task) {
            for i in r.paths() {
                let key = g.keys[i];
                let member = (i as u32, key.slot + r.k);
                match runs.iter_mut().find(|(group, _)| *group == key.group) {
                    Some((_, run)) => run.push(member),
                    None => runs.push((key.group, vec![member])),
                }
            }
        }
        runs.into_iter().map(|(_, run)| run).collect()
    }

    /// The walk alone puts the paths in canonical order: task sequences
    /// strictly ascend, group ids appear in first-occurrence order, one
    /// group per distinct mask, and every task's node ranges ascend, are
    /// disjoint and cover exactly its spanning paths, so a range scan
    /// meets its groups in the order the ascending spanning paths first
    /// reach them and each group's members ascending.
    #[test]
    fn paths_come_out_in_canonical_order() {
        for (name, ctx, probs, s) in &graph_cases() {
            let g = ScheduledGraph::build(ctx, s, probs, DEFAULT_PATH_CAP).unwrap();
            assert!(g.paths().len() > 1, "{name}");
            for (a, b) in g.paths().zip(g.paths().skip(1)) {
                assert!(a.tasks() < b.tasks(), "{name}: {a:?} before {b:?}");
            }
            let mut opened = 0;
            for p in &g.keys {
                assert!(p.group <= opened, "{name}: group {} opened early", p.group);
                opened = opened.max(p.group + 1);
            }
            assert_eq!(opened as usize, g.groups(), "{name}");
            let masks: Vec<&[u64]> = g.group_words().collect();
            for (i, m) in masks.iter().enumerate() {
                assert!(!masks[..i].contains(m), "{name}: mask {i} repeats");
            }
            for t in ctx.ctg().tasks() {
                let spanning: Vec<usize> =
                    (0..g.paths.len()).filter(|&i| g.path(i).spans(t)).collect();
                let mut covered = Vec::new();
                for r in g.span_ranges(t) {
                    assert!(r.lo < r.hi, "{name}: empty range of {t}");
                    assert!(
                        covered.last().is_none_or(|&last| last < r.lo as usize),
                        "{name}: ranges of {t} overlap or descend"
                    );
                    covered.extend(r.paths());
                }
                assert_eq!(covered, spanning, "{name}: ranges of {t}");
                let mut want: Vec<(u32, Vec<u32>)> = Vec::new();
                for &i in &spanning {
                    let group = g.keys[i].group;
                    match want.iter_mut().find(|(g, _)| *g == group) {
                        Some((_, run)) => run.push(i as u32),
                        None => want.push((group, vec![i as u32])),
                    }
                }
                let want: Vec<Vec<u32>> = want.into_iter().map(|(_, run)| run).collect();
                let got: Vec<Vec<u32>> = range_scan(&g, t)
                    .iter()
                    .map(|run| run.iter().map(|m| m.0).collect())
                    .collect();
                assert_eq!(got, want, "{name}: groups of {t}");
            }
        }
    }

    /// Every task's stretcher layout at once, as the build once laid it
    /// out eagerly for `CalculateSlack` to fold run by run (see the
    /// stretcher's `calculate_slack_matches_the_two_pass_reference`): a
    /// two-pass counting sort over all the canonical paths.
    /// Pass 1 numbers each (task, group) run in first-occurrence order and
    /// counts its members; pass 2 scatters the `(path, suffix slot)`
    /// members, the slot counted from each path's guard positions, so each
    /// run ascends by path index. Returns each task's runs, in order.
    pub(crate) fn reference_layout(g: &ScheduledGraph) -> Vec<Vec<Run>> {
        let n = g.node_off.len() - 1;
        let mut run_of = vec![u32::MAX; g.groups() * n];
        let row = |p: &PathKey| p.group as usize * n..(p.group as usize + 1) * n;
        let mut run_task: Vec<u32> = Vec::new();
        let mut run_len: Vec<u32> = Vec::new();
        let mut run_off = vec![0u32; n + 1];
        for (p, key) in g.paths().zip(&g.keys) {
            let run_of = &mut run_of[row(key)];
            for t in p.tasks() {
                let cell = &mut run_of[t.index()];
                if *cell == u32::MAX {
                    *cell = run_len.len() as u32;
                    run_len.push(0);
                    run_task.push(t.index() as u32);
                    run_off[t.index() + 1] += 1;
                }
                run_len[*cell as usize] += 1;
            }
        }
        for i in 0..n {
            run_off[i + 1] += run_off[i];
        }
        let mut next_run: Vec<u32> = run_off[..n].to_vec();
        let mut runs = vec![(0u32, 0u32); run_len.len()];
        let mut fill = vec![0u32; run_len.len()];
        for (r, &t) in run_task.iter().enumerate() {
            let at = &mut next_run[t as usize];
            fill[r] = *at;
            runs[*at as usize].1 = run_len[r];
            *at += 1;
        }
        let mut end = 0u32;
        for run in &mut runs {
            run.0 = end;
            end += run.1;
            run.1 = end;
        }
        for f in &mut fill {
            *f = runs[*f as usize].0;
        }
        let mut members = vec![(0u32, 0u32); g.paths().map(|p| p.tasks().len()).sum()];
        for (i, (p, key)) in g.paths().zip(&g.keys).enumerate() {
            let run_of = &run_of[row(key)];
            let guards = p.guards();
            assert!(guards.windows(2).all(|w| w[0].0 < w[1].0));
            let first = key.slot;
            let mut k = 0;
            for (pos, t) in p.tasks().iter().enumerate() {
                while k < guards.len() && (guards[k].0 as usize) < pos {
                    k += 1;
                }
                let c = &mut fill[run_of[t.index()] as usize];
                members[*c as usize] = (i as u32, first + k as u32);
                *c += 1;
            }
        }
        (0..n)
            .map(|t| {
                runs[run_off[t] as usize..run_off[t + 1] as usize]
                    .iter()
                    .map(|&(s, e)| members[s as usize..e as usize].to_vec())
                    .collect()
            })
            .collect()
    }

    /// Nine independent two-way forks under one root: 512 scenarios, too
    /// many for the walk's inline mask widths.
    fn wide_case() -> (String, SchedContext, BranchProbs, Schedule) {
        let mut b = ctg_model::CtgBuilder::new("nine forks");
        let root = b.add_task("root");
        for i in 0..9 {
            let fork = b.add_task(format!("fork{i}"));
            b.add_edge(root, fork, 0.5).unwrap();
            for alt in 0..2 {
                let arm = b.add_task(format!("arm{i}.{alt}"));
                b.add_cond_edge(fork, arm, alt, 0.5).unwrap();
            }
        }
        let ctg = b.deadline(1000.0).build().unwrap();
        let probs = BranchProbs::uniform(&ctg);
        let platform = crate::test_util::uniform_platform(ctg.num_tasks(), 3, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        assert_eq!(ctx.scenarios().len(), 512);
        let s = dls_schedule(&ctx, &probs).unwrap();
        ("nine forks".into(), ctx, probs, s)
    }

    /// Builds `s`'s graph with the walk's masks `width` words wide, under
    /// `meter`, through `scratch` when one is given (else a fresh one the
    /// graph takes over), returning the graph and the charge.
    fn build_through(
        scratch: Option<&mut BuildScratch>,
        (ctx, probs, s): (&SchedContext, &BranchProbs, &Schedule),
        cap: usize,
        width: usize,
        mut meter: WorkMeter,
    ) -> (Result<Option<ScheduledGraph>, SchedError>, u64) {
        let scenario_probs = ctx.scenario_probs(probs);
        let g =
            ScheduledGraph::build_with(ctx, s, &scenario_probs, cap, &mut meter, width, scratch);
        (g, meter.spent())
    }

    /// A case's graph through the width dispatch on a fresh scratch, its
    /// enumeration charge, and the charge of the over-the-cap verdict at
    /// half its path count.
    fn fresh_build(
        ctx: &SchedContext,
        probs: &BranchProbs,
        s: &Schedule,
    ) -> (ScheduledGraph, u64, u64) {
        let build = |cap: usize| {
            let mut meter = WorkMeter::unlimited();
            let g = ScheduledGraph::build_metered(ctx, s, probs, cap, &mut meter).unwrap();
            (g, meter.spent())
        };
        let (g, units) = build(DEFAULT_PATH_CAP);
        let g = g.expect("under the default cap");
        let (over, over_units) = build(g.paths().len() / 2);
        assert!(over.is_none(), "half the paths must overflow");
        (g, units, over_units)
    }

    /// The walk widths that hold `ctx`'s scenarios: the compile-time
    /// widths 1–4 from the context's words up, then a wider one, which
    /// reads the context's words at run time.
    fn walk_widths(ctx: &SchedContext) -> impl Iterator<Item = usize> {
        let words = ctx.scenarios().len().div_ceil(64);
        (words.max(1)..=4).chain([words.max(5)])
    }

    /// Every walk instantiation wide enough for a context's scenarios
    /// builds the graph the width dispatch builds, the run-time width
    /// included, on every graph case and on a 512-scenario graph: field
    /// for field with the same enumeration charge, and the same
    /// over-the-cap verdict and charge at half the path count.
    #[test]
    fn every_walk_width_builds_the_same_graph() {
        let mut cases = graph_cases();
        cases.push(wide_case());
        let mut checked = [0; 5];
        for (name, ctx, probs, s) in &cases {
            let (base, units, over_units) = fresh_build(ctx, probs, s);
            for width in walk_widths(ctx) {
                let label = format!("{name} width {width}");
                let case = (ctx, probs, s);
                let unlimited = WorkMeter::unlimited;
                let (g, spent) = build_through(None, case, DEFAULT_PATH_CAP, width, unlimited());
                assert_same_graph(&base, &g.unwrap().expect("under the cap"), &label);
                assert_eq!(spent, units, "{label}: enumeration charge");
                let half = base.paths().len() / 2;
                let (g, spent) = build_through(None, case, half, width, unlimited());
                assert!(g.unwrap().is_none(), "{label}: over-the-cap verdict");
                assert_eq!(spent, over_units, "{label}: charge over the cap");
                checked[width.min(5) - 1] += 1;
            }
        }
        // MPEG's 130 scenarios take three words; the nine forks' 512 take
        // eight.
        assert!(checked[..4].iter().all(|&c| c > 0), "{checked:?}");
        assert!(checked[2] > checked[1], "{checked:?}");
        assert_eq!(checked[4], cases.len());
    }

    /// One scratch builds every graph case and the nine-fork graph in
    /// turn, at every walk width that holds the case's scenarios: per
    /// width an over-the-cap build, an under-the-cap build, a budgeted
    /// build that aborts halfway through the walk and another
    /// under-the-cap build. Every under-the-cap build must equal the
    /// fresh-scratch build field for field with the same charge, so no
    /// trie node, walk record, group, mask or per-task state of an
    /// earlier build, on this context or another, leaks into a later one.
    #[test]
    fn one_scratch_builds_every_case_like_a_fresh_scratch() {
        let mut cases = graph_cases();
        cases.push(wide_case());
        let mut scratch = BuildScratch::default();
        for (name, ctx, probs, s) in &cases {
            let (base, units, over_units) = fresh_build(ctx, probs, s);
            for width in walk_widths(ctx) {
                let label = format!("{name} width {width}, used scratch");
                let case = (ctx, probs, s);
                let unlimited = WorkMeter::unlimited;
                let half = base.paths().len() / 2;
                let (g, spent) = build_through(Some(&mut scratch), case, half, width, unlimited());
                assert!(g.unwrap().is_none(), "{label}: over-the-cap verdict");
                assert_eq!(spent, over_units, "{label}: charge over the cap");
                for step in ["after an over-the-cap build", "after an aborted build"] {
                    let (g, spent) = build_through(
                        Some(&mut scratch),
                        case,
                        DEFAULT_PATH_CAP,
                        width,
                        unlimited(),
                    );
                    let g = g.unwrap().expect("under the cap");
                    assert_same_graph(&base, &g, &format!("{label} {step}"));
                    assert_eq!(spent, units, "{label} {step}: enumeration charge");
                    let budget = WorkMeter::with_budget(units / 2);
                    let (g, _) =
                        build_through(Some(&mut scratch), case, DEFAULT_PATH_CAP, width, budget);
                    assert_eq!(
                        g.unwrap_err(),
                        SchedError::SolveBudgetExceeded {
                            spent: units / 2 + 1,
                            budget: units / 2
                        },
                        "{label}: the budget aborts the walk"
                    );
                }
            }
        }
    }

    /// A budgeted build aborts on the step that crosses its budget, inside
    /// a run of links too, where the walk takes a link's frame and edge
    /// without a level: on every graph case and the nine-fork graph, at
    /// every walk width, every budget `b` below the unlimited charge `c`
    /// (every `STRIDE`-th on cases above `SMALL` units, a stride that
    /// must land on the frame step and on the edge step of some link)
    /// fails with `b + 1` spent, and budget `c` builds the unlimited
    /// graph. Each frame the walk takes charges one unit and one per
    /// out-edge of its task, in the order the frames are recorded, so the
    /// frames give every link's two steps.
    #[test]
    fn budgeted_builds_abort_on_the_crossing_step() {
        const SMALL: u64 = 1000;
        const STRIDE: usize = 97;
        let mut cases = graph_cases();
        cases.push(wide_case());
        let mut strided = 0;
        for (name, ctx, probs, s) in &cases {
            let (base, units, _) = fresh_build(ctx, probs, s);
            let n = ctx.ctg().num_tasks();
            let mut out: Vec<Vec<&SEdge>> = vec![Vec::new(); n];
            for e in base.edges() {
                out[e.src.index()].push(e);
            }
            let is_link = |t: usize| match out[t][..] {
                [e] => {
                    e.guard.is_none()
                        && ctx
                            .task_mask(TaskId::new(t))
                            .subset_of(ctx.task_mask(e.dst))
                }
                _ => false,
            };
            // The charge before each link frame: a budget of that many
            // units aborts on the link's frame step, one more on its edge
            // step.
            let mut before = 0;
            let mut link_charges = Vec::new();
            for f in &base.frames {
                let t = f.task as usize;
                if is_link(t) {
                    link_charges.push(before);
                }
                before += 1 + out[t].len() as u64;
            }
            assert_eq!(before, units, "{name}: one unit per frame and per out-edge");
            let stride = if units <= SMALL { 1 } else { STRIDE };
            let budgets: Vec<u64> = (0..units).step_by(stride).collect();
            if stride > 1 {
                strided += 1;
                for step in [0, 1] {
                    assert!(
                        link_charges
                            .iter()
                            .any(|c| budgets.binary_search(&(c + step)).is_ok()),
                        "{name}: no budget aborts on a link's {} step",
                        ["frame", "edge"][step as usize]
                    );
                }
            }
            for width in walk_widths(ctx) {
                let label = format!("{name} width {width}");
                let case = (ctx, probs, s);
                for &b in &budgets {
                    let budget = WorkMeter::with_budget(b);
                    let (g, spent) = build_through(None, case, DEFAULT_PATH_CAP, width, budget);
                    assert_eq!(
                        g.unwrap_err(),
                        SchedError::SolveBudgetExceeded {
                            spent: b + 1,
                            budget: b
                        },
                        "{label}: budget {b}"
                    );
                    assert_eq!(spent, b + 1, "{label}: budget {b}");
                }
                let budget = WorkMeter::with_budget(units);
                let (g, spent) = build_through(None, case, DEFAULT_PATH_CAP, width, budget);
                let g = g.unwrap().expect("under the cap");
                assert_same_graph(&base, &g, &format!("{label}, budget {units}"));
                assert_eq!(spent, units, "{label}: budget {units}");
            }
        }
        // The three MPEG plans and the 72-task graph take the stride.
        assert_eq!(strided, 4);
    }

    /// FNV-1a over every graph case and the nine-fork graph: each field
    /// [`assert_same_graph`] compares, the enumeration charge, and the
    /// over-the-cap verdict and charge at half the path count.
    fn graph_cases_digest() -> u64 {
        let mut h = Fnv::default();
        let lit = |l: Literal| (l.branch().index() as u64) << 8 | u64::from(l.alt());
        let mut cases = graph_cases();
        cases.push(wide_case());
        for (_, ctx, probs, s) in &cases {
            let build = |cap: usize| {
                let mut meter = WorkMeter::unlimited();
                let g = ScheduledGraph::build_metered(ctx, s, probs, cap, &mut meter).unwrap();
                (g, meter.spent())
            };
            let (g, units) = build(DEFAULT_PATH_CAP);
            let g = g.expect("under the default cap");
            h.write_u64(units);
            h.write_usize(g.edges.len());
            for e in &g.edges {
                h.write_usize(e.src.index());
                h.write_usize(e.dst.index());
                h.write_u64(e.guard.map_or(u64::MAX, lit));
                h.write_u64(e.kind as u64);
                h.write_u64(e.delay.to_bits());
            }
            h.write_usize(g.paths().len());
            for p in g.paths() {
                h.write_usize(p.tasks().len());
                for t in p.tasks() {
                    h.write_usize(t.index());
                }
                h.write_usize(p.guards().len());
                for &(pos, l) in p.guards() {
                    h.write_u64(u64::from(pos));
                    h.write_u64(lit(l));
                }
                h.write_u64(p.delay().to_bits());
                h.write_u64(p.prob().to_bits());
            }
            for k in &g.keys {
                h.write_u64(u64::from(k.group) << 32 | u64::from(k.slot));
            }
            h.write_usize(g.groups());
            for m in g.group_words() {
                for &w in m {
                    h.write_u64(w);
                }
            }
            h.write_usize(g.seq_lits.len());
            for &l in &g.seq_lits {
                h.write_u64(lit(l));
            }
            for &(a, b) in &g.seqs {
                h.write_u64(u64::from(a) << 32 | u64::from(b));
            }
            h.write_usize(g.nodes.len());
            for r in &g.nodes {
                h.write_u64(u64::from(r.lo) << 32 | u64::from(r.hi));
                h.write_u64(u64::from(r.k));
            }
            for &o in &g.node_off {
                h.write_u64(u64::from(o));
            }
            let (over, over_units) = build(g.paths().len() / 2);
            h.write_u64(u64::from(over.is_none()));
            h.write_u64(over_units);
        }
        h.finish()
    }

    /// The golden pin of the graph build: every graph case and the
    /// nine-fork graph hash to the digest the build gave before its walk
    /// became a cursor stack over workspace-owned buffers. Any change to
    /// an edge, a path, a group, a guard sequence, a node range, a charge
    /// or an over-the-cap verdict moves it.
    #[test]
    fn graph_cases_match_the_golden_digest() {
        assert_eq!(graph_cases_digest(), 0xb542_2d01_6806_b5bc);
    }

    /// The readers that walk the frames agree with the flat copy, and
    /// nothing on the solver's path lays that copy out. On every graph
    /// case and the nine-fork graph, at every walk width, through a fresh
    /// and a kept scratch: each path's frame chain, reversed, is its
    /// [`SPath::tasks`], and the delays `validate_solution` reads along
    /// the chains are [`SPath::stretched_delay`]'s bits at nominal and at
    /// stretched speeds, read before the copy exists. Per case, a
    /// workspace's DLS solve (a build), a stretch of its plan under a
    /// skewed table and a repeat of the solve (pool hits that re-weight),
    /// a solve under the skewed table, a stretch of the case's own
    /// schedule and a worst-case check leave every pooled graph's copy
    /// unlaid.
    #[test]
    fn frame_readers_match_the_flat_view() {
        use crate::stretch::{stretch_schedule, tests::skewed_probs, StretchConfig};
        use crate::workspace::SolverWorkspace;
        let mut cases = graph_cases();
        cases.push(wide_case());
        let mut scratch = BuildScratch::default();
        let (mut builds, mut hits) = (0, 0);
        for (name, ctx, probs, s) in &cases {
            let nominal = SpeedAssignment::nominal(ctx.ctg().num_tasks());
            let cfg = StretchConfig::default();
            let stretched = stretch_schedule(ctx, probs, s, &cfg).unwrap();
            assert_ne!(stretched, nominal, "{name}: nothing stretched");
            for width in walk_widths(ctx) {
                for kept in [false, true] {
                    let label = format!("{name} width {width}, kept scratch {kept}");
                    let case = (ctx, probs, s);
                    let unlimited = WorkMeter::unlimited();
                    let g = build_through(
                        kept.then_some(&mut scratch),
                        case,
                        DEFAULT_PATH_CAP,
                        width,
                        unlimited,
                    );
                    let g = g.0.unwrap().expect("under the cap");
                    let speeds = [&nominal, &stretched];
                    let along = speeds.map(|speeds| {
                        let delays = g.stretched_delays(ctx, s, speeds);
                        delays.map(f64::to_bits).collect::<Vec<_>>()
                    });
                    assert!(
                        g.flat.get().is_none(),
                        "{label}: the chains laid out the copy"
                    );
                    for (speeds, along) in speeds.into_iter().zip(along) {
                        let flat: Vec<u64> = g
                            .paths()
                            .map(|p| p.stretched_delay(ctx, s, speeds).to_bits())
                            .collect();
                        assert_eq!(along, flat, "{label}: stretched delays");
                    }
                    for (i, p) in g.paths().enumerate() {
                        let mut chain: Vec<TaskId> = g.chain(i).collect();
                        chain.reverse();
                        assert_eq!(chain, p.tasks(), "{label}: chain of path {i}");
                    }
                }
            }

            let skewed = skewed_probs(ctx.ctg());
            let mut ws = SolverWorkspace::new();
            let first = ws.solve(&cfg, ctx, probs).unwrap();
            ws.stretch_mapping(&cfg, ctx, &skewed, &first.schedule)
                .unwrap();
            assert_eq!(ws.solve(&cfg, ctx, probs).unwrap(), first, "{name}");
            ws.solve(&cfg, ctx, &skewed).unwrap();
            ws.stretch_mapping(&cfg, ctx, probs, s).unwrap();
            ws.worst_case_makespan(ctx, &first);
            let stats = ws.stats();
            (builds, hits) = (builds + stats.graph_rebuilds, hits + stats.graph_reuses);
            assert!(stats.graph_reuses >= 2, "{name}: {stats:?}");
            for g in ws.pooled_graphs() {
                assert!(g.flat.get().is_none(), "{name}: a solve laid out the copy");
            }
        }
        assert!(builds >= cases.len() && hits >= 2 * cases.len());
    }

    #[test]
    fn makespan_dp_matches_path_enumeration() {
        let (ctx, probs, _) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let speeds =
            crate::stretch::stretch_schedule(&ctx, &probs, &s, &Default::default()).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        let by_paths = g
            .paths()
            .map(|p| p.stretched_delay(&ctx, &s, &speeds))
            .fold(0.0, f64::max);
        let by_dp = worst_case_makespan_dp(&ctx, &s, &speeds);
        assert!(
            (by_dp - by_paths).abs() <= 1e-9 * by_paths.max(1.0),
            "DP {by_dp} vs path enumeration {by_paths}"
        );
        // At nominal speeds the DP reproduces the schedule's makespan.
        let nominal = SpeedAssignment::nominal(ctx.ctg().num_tasks());
        let wcm = worst_case_makespan_dp(&ctx, &s, &nominal);
        assert!((wcm - s.makespan()).abs() <= 1e-9 * s.makespan());
    }
}

#[cfg(test)]
mod prefix_path_tests {
    use super::*;
    use crate::context::SchedContext;
    use crate::dls::dls_schedule;
    use crate::test_util::uniform_platform;
    use ctg_model::{BranchProbs, CtgBuilder};

    /// Regression: a chain ending at a task whose only continuations are
    /// deactivated in some scenario must still appear as a worst-case path
    /// for that scenario (found by tests/property.rs on a layered graph).
    #[test]
    fn prefix_paths_are_emitted_for_uncovered_scenarios() {
        // head → mid → tail(cond alt 0). Under alt 1 the chain head→mid has
        // no consistent continuation, yet mid's finish bounds the makespan.
        let mut b = CtgBuilder::new("prefix");
        let head = b.add_task("head");
        let fork = b.add_task("fork");
        let mid = b.add_task("mid");
        let arm1 = b.add_task("arm1");
        b.add_edge(head, fork, 0.0).unwrap();
        b.add_edge(head, mid, 0.0).unwrap();
        b.add_cond_edge(fork, arm1, 1, 0.0).unwrap();
        // mid's only successor is conditional on alt 0 of the fork.
        let gated = b.add_task("gated");
        b.add_cond_edge(fork, gated, 0, 0.0).unwrap();
        b.add_edge(mid, gated, 0.0).unwrap();
        let ctg = b.deadline(100.0).build().unwrap();
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let schedule = dls_schedule(&ctx, &probs).unwrap();
        let graph = ScheduledGraph::build(&ctx, &schedule, &probs, 10_000).unwrap();
        // Some emitted path must end at `mid` (alt-1 scenarios where `gated`
        // is inactive).
        assert!(
            graph.paths().any(|p| p.tasks().last() == Some(&mid)),
            "prefix path ending at mid missing: {:?}",
            graph.paths().collect::<Vec<_>>()
        );
        // And its scenario mask excludes the alt-0 scenarios (where the
        // continuation through `gated` exists).
        let prefix = graph
            .paths()
            .find(|p| p.tasks().last() == Some(&mid))
            .unwrap();
        let gated_mask = ctx.task_mask(gated);
        assert!(prefix.cond().and(gated_mask).is_empty());
    }

    /// Path scenario masks partition correctly: for every scenario, the
    /// maximum delay over paths containing it bounds the simulated makespan.
    #[test]
    fn every_scenario_is_covered_by_some_path() {
        let (ctx, probs, _) = crate::test_util::example1_context();
        let schedule = dls_schedule(&ctx, &probs).unwrap();
        let graph = ScheduledGraph::build(&ctx, &schedule, &probs, 10_000).unwrap();
        for si in 0..ctx.scenarios().len() {
            assert!(
                graph.paths().any(|p| p.cond().contains(si)),
                "scenario {si} not covered by any path"
            );
        }
    }
}
