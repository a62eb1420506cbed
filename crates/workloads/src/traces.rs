//! Branch-decision trace generation.
//!
//! Each branch fork node is driven by an independent piecewise-stationary
//! source: the selection probability holds roughly constant within a
//! "scene", drifts via a small random walk, and jumps at scene changes.
//! This reproduces the statistical structure the paper measured on real
//! movie clips (Figure 4): hard-to-predict individual selections, slowly
//! varying windowed probability with local fluctuation, occasional drifts
//! that the adaptive algorithm must chase.

use ctg_model::{Activation, BranchProbs, Ctg, DecisionVector};
use ctg_rng::Rng64;

/// How per-scene base probabilities are drawn.
#[derive(Debug, Clone, PartialEq)]
pub enum SceneDist {
    /// Uniform over a range.
    Uniform(f64, f64),
    /// Bimodal: with probability ½ a "low" scene, otherwise a "high" scene —
    /// the shape of real MPEG branch statistics, where e.g. almost every
    /// block of an I-frame scene is coded and almost none of a static scene.
    Bimodal {
        /// Range for low scenes.
        low: (f64, f64),
        /// Range for high scenes.
        high: (f64, f64),
    },
}

impl SceneDist {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        match *self {
            SceneDist::Uniform(a, b) => rng.gen_range(a..b),
            SceneDist::Bimodal { low, high } => {
                if rng.gen_bool(0.5) {
                    rng.gen_range(low.0..low.1)
                } else {
                    rng.gen_range(high.0..high.1)
                }
            }
        }
    }
}

/// Parameters of the per-branch drifting source.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftProfile {
    /// Seed for the whole trace.
    pub seed: u64,
    /// Scene length range (instances between probability jumps).
    pub scene_len: (usize, usize),
    /// Distribution of per-scene base probabilities of alternative 0.
    pub dist: SceneDist,
    /// Standard deviation of the per-instance random walk on the
    /// probability.
    pub walk_sigma: f64,
}

impl DriftProfile {
    /// A moderate default profile (SIF-movie-like).
    pub fn new(seed: u64) -> Self {
        DriftProfile {
            seed,
            scene_len: (60, 200),
            dist: SceneDist::Bimodal {
                low: (0.02, 0.2),
                high: (0.8, 0.98),
            },
            walk_sigma: 0.02,
        }
    }
}

/// State of one branch's probability process.
struct BranchSource {
    p: Vec<f64>, // probability per alternative
    scene_left: usize,
}

/// Generates `len` decision vectors for the fork nodes of `ctg`.
///
/// Decisions are generated for *every* fork position of every instance (a
/// trace monitor records them regardless of activation), exactly like the
/// paper's `⟨x1, …, xn⟩` vectors.
pub fn generate_trace(ctg: &Ctg, profile: &DriftProfile, len: usize) -> Vec<DecisionVector> {
    let mut rng = Rng64::seed_from_u64(profile.seed);
    let forks = ctg.branch_nodes();
    let mut sources: Vec<BranchSource> = forks
        .iter()
        .map(|&b| {
            let k = ctg.node(b).alternatives() as usize;
            BranchSource {
                p: fresh_scene(k, profile, &mut rng),
                scene_left: rng.gen_range(profile.scene_len.0..=profile.scene_len.1),
            }
        })
        .collect();

    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let mut alts = Vec::with_capacity(sources.len());
        for src in &mut sources {
            // Scene management.
            if src.scene_left == 0 {
                src.p = fresh_scene(src.p.len(), profile, &mut rng);
                src.scene_left = rng.gen_range(profile.scene_len.0..=profile.scene_len.1);
            } else {
                src.scene_left -= 1;
                // Local random walk with reflection into [0.02, 0.98].
                let step = sample_gauss(&mut rng) * profile.walk_sigma;
                src.p[0] = (src.p[0] + step).clamp(0.02, 0.98);
                renormalize_tail(&mut src.p);
            }
            alts.push(sample_alt(&src.p, &mut rng));
        }
        out.push(DecisionVector::new(alts));
    }
    out
}

fn fresh_scene(k: usize, profile: &DriftProfile, rng: &mut Rng64) -> Vec<f64> {
    let p0 = profile.dist.sample(rng);
    let mut p = vec![0.0; k];
    p[0] = p0;
    let rest = 1.0 - p0;
    for slot in p.iter_mut().skip(1) {
        *slot = rest / (k - 1) as f64;
    }
    p
}

fn renormalize_tail(p: &mut [f64]) {
    let rest = 1.0 - p[0];
    let k = p.len() - 1;
    for slot in p.iter_mut().skip(1) {
        *slot = rest / k as f64;
    }
}

fn sample_alt(p: &[f64], rng: &mut Rng64) -> u8 {
    let x: f64 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, &q) in p.iter().enumerate() {
        acc += q;
        if x < acc {
            return i as u8;
        }
    }
    (p.len() - 1) as u8
}

/// Box–Muller standard normal sample.
fn sample_gauss(rng: &mut Rng64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A named movie stand-in (seed + drift characteristics).
#[derive(Debug, Clone, PartialEq)]
pub struct MoviePreset {
    /// Movie name as used in the paper's Figure 5 / Table 2.
    pub name: &'static str,
    /// The drift profile generating its branch decisions.
    pub profile: DriftProfile,
}

/// The eight movie presets of the paper's MPEG experiment.
///
/// *Shuttle* (QCIF, ~10 frames worth of macroblocks) is configured with
/// shorter scenes and stronger local fluctuation — in the paper it triggers
/// by far the most re-scheduling calls.
pub fn movie_presets() -> Vec<MoviePreset> {
    let dist = SceneDist::Bimodal {
        low: (0.02, 0.2),
        high: (0.8, 0.98),
    };
    let mk = |name, seed, scene: (usize, usize), sigma| MoviePreset {
        name,
        profile: DriftProfile {
            seed,
            scene_len: scene,
            dist: dist.clone(),
            walk_sigma: sigma,
        },
    };
    vec![
        mk("Airwolf", 101, (180, 420), 0.015),
        mk("Bike", 102, (150, 380), 0.02),
        mk("Bus", 103, (90, 240), 0.03),
        mk("Coaster", 104, (160, 400), 0.02),
        mk("Flower", 105, (130, 320), 0.025),
        mk("Shuttle", 106, (30, 90), 0.05),
        mk("Tennis", 107, (120, 300), 0.03),
        mk("Train", 108, (200, 460), 0.012),
    ]
}

/// A named road-condition sequence for the cruise controller.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadPreset {
    /// Sequence label (1–3 in the paper's Table 3).
    pub name: &'static str,
    /// The drift profile generating its branch decisions.
    pub profile: DriftProfile,
}

/// The three road sequences of the paper's cruise-controller experiment
/// (uphill / downhill / straight / bumpy segments produce piecewise-constant
/// accelerate-vs-decelerate regimes).
pub fn road_presets() -> Vec<RoadPreset> {
    // Road regimes (uphill / downhill / straight / bumpy) are milder than
    // movie scenes: accelerate-vs-decelerate leans but rarely saturates.
    let dist = SceneDist::Bimodal {
        low: (0.15, 0.35),
        high: (0.65, 0.85),
    };
    let mk = |name, seed, scene: (usize, usize), sigma| RoadPreset {
        name,
        profile: DriftProfile {
            seed,
            scene_len: scene,
            dist: dist.clone(),
            walk_sigma: sigma,
        },
    };
    vec![
        mk("seq1", 201, (80, 220), 0.02),
        mk("seq2", 202, (50, 150), 0.03),
        mk("seq3", 203, (120, 300), 0.015),
    ]
}

/// Profiles the *executed-fork* average branch probabilities of a trace —
/// what the paper's non-adaptive algorithm learns from a training sequence.
///
/// `act` is `ctg`'s activation analysis ([`Ctg::activation`]), which
/// decides which forks a vector executes; pass a cached one. Forks that
/// never execute in the trace fall back to the uniform distribution.
/// Counts are Laplace-smoothed so no alternative gets an exact zero.
///
/// A decision outside its fork's alternatives, or a position missing from
/// a short vector, counts nothing: it selects no branch of its fork
/// ([`DecisionVector::executed_forks_into`]), so the forks only that
/// branch would activate do not execute either.
pub fn empirical_probs(ctg: &Ctg, act: &Activation, trace: &[DecisionVector]) -> BranchProbs {
    let forks = ctg.branch_nodes();
    let mut counts: Vec<Vec<f64>> = forks
        .iter()
        .map(|&b| vec![1.0; ctg.node(b).alternatives() as usize])
        .collect();
    let mut executed = Vec::new();
    for v in trace {
        v.executed_forks_into(ctg, act, &mut executed);
        for ((&ran, &alt), counts) in executed.iter().zip(v.alts()).zip(&mut counts) {
            if !ran {
                continue;
            }
            if let Some(c) = counts.get_mut(usize::from(alt)) {
                *c += 1.0;
            }
        }
    }
    let mut probs = BranchProbs::new();
    for (i, &b) in forks.iter().enumerate() {
        let total: f64 = counts[i].iter().sum();
        probs
            .set(b, counts[i].iter().map(|c| c / total).collect())
            .expect("smoothed counts form a distribution");
    }
    probs
}

/// Builds a probability table that strongly favours the given alternative at
/// every fork — the paper's "profiled bias" scenarios of Tables 4 and 5.
///
/// `strength` is the probability mass given to the favoured alternative
/// (e.g. 0.9); the remainder is split among the others.
///
/// # Panics
///
/// Panics if `favoured` does not list one alternative per fork node or
/// `strength` is outside `(0, 1)`.
pub fn skewed_probs(ctg: &Ctg, favoured: &[u8], strength: f64) -> BranchProbs {
    assert_eq!(
        favoured.len(),
        ctg.num_branches(),
        "one alternative per fork"
    );
    assert!(
        strength > 0.0 && strength < 1.0,
        "strength must be in (0, 1)"
    );
    let mut probs = BranchProbs::new();
    for (i, &b) in ctg.branch_nodes().iter().enumerate() {
        let k = ctg.node(b).alternatives() as usize;
        let mut p = vec![(1.0 - strength) / (k - 1) as f64; k];
        p[favoured[i] as usize] = strength;
        probs.set(b, p).expect("skewed table is a distribution");
    }
    probs
}

/// Splits a trace into the paper's training/testing halves.
pub fn split_train_test(trace: &[DecisionVector]) -> (&[DecisionVector], &[DecisionVector]) {
    let mid = trace.len() / 2;
    trace.split_at(mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpeg::mpeg_ctg;

    #[test]
    fn trace_is_deterministic_and_sized() {
        let g = mpeg_ctg();
        let p = DriftProfile::new(9);
        let a = generate_trace(&g, &p, 500);
        let b = generate_trace(&g, &p, 500);
        assert_eq!(a.len(), 500);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.len() == g.num_branches()));
    }

    #[test]
    fn windowed_probability_fluctuates() {
        // The paper reports 0.4–0.5 probability fluctuation per branch.
        let g = mpeg_ctg();
        let p = DriftProfile::new(3);
        let trace = generate_trace(&g, &p, 1000);
        let window = 50;
        let mut min_p: f64 = 1.0;
        let mut max_p: f64 = 0.0;
        for chunk in trace.chunks(window) {
            let ones = chunk.iter().filter(|v| v.alt(1) == 0).count();
            let est = ones as f64 / chunk.len() as f64;
            min_p = min_p.min(est);
            max_p = max_p.max(est);
        }
        assert!(
            max_p - min_p >= 0.3,
            "windowed probability should fluctuate (saw {min_p}..{max_p})"
        );
    }

    #[test]
    fn empirical_probs_recover_bias() {
        let g = mpeg_ctg();
        // Constant all-zeros trace: the skipped fork always takes alt 0.
        let trace: Vec<DecisionVector> = (0..200)
            .map(|_| DecisionVector::new(vec![0; g.num_branches()]))
            .collect();
        let probs = empirical_probs(&g, &g.activation(), &trace);
        let skipped = g.branch_nodes()[0];
        assert!(probs.prob(skipped, 0) > 0.95);
        assert!(probs.validate(&g).is_ok());
    }

    #[test]
    fn empirical_probs_uniform_for_never_executed_forks() {
        let g = mpeg_ctg();
        // Always skipped (alt 1 at fork a): every nested fork stays idle.
        let trace: Vec<DecisionVector> = (0..100)
            .map(|_| {
                let mut v = vec![0; g.num_branches()];
                v[crate::mpeg::BRANCH_SKIPPED] = 1;
                DecisionVector::new(v)
            })
            .collect();
        let probs = empirical_probs(&g, &g.activation(), &trace);
        let mb_type = g.branch_nodes()[crate::mpeg::BRANCH_TYPE];
        assert!((probs.prob(mb_type, 0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_decisions_count_nothing() {
        // Alternative 7 at the first fork selects neither of its branches,
        // so the vector executes no other fork and counts nothing at all.
        let g = mpeg_ctg();
        let act = g.activation();
        let trace = generate_trace(&g, &DriftProfile::new(4), 200);
        let mut bad = trace.clone();
        let mut alts = bad[50].alts().to_vec();
        alts[crate::mpeg::BRANCH_SKIPPED] = 7;
        bad[50] = DecisionVector::new(alts);
        let mut left_out = trace.clone();
        left_out.remove(50);
        let without = empirical_probs(&g, &act, &left_out);
        assert_eq!(empirical_probs(&g, &act, &bad), without);
        assert_ne!(empirical_probs(&g, &act, &trace), without);
    }

    #[test]
    fn skewed_probs_shape() {
        let g = mpeg_ctg();
        let fav = vec![1; g.num_branches()];
        let probs = skewed_probs(&g, &fav, 0.9);
        for &b in g.branch_nodes() {
            assert!((probs.prob(b, 1) - 0.9).abs() < 1e-12);
        }
        assert!(probs.validate(&g).is_ok());
    }

    #[test]
    fn presets_are_distinct() {
        let movies = movie_presets();
        assert_eq!(movies.len(), 8);
        let g = mpeg_ctg();
        let t1 = generate_trace(&g, &movies[0].profile, 100);
        let t2 = generate_trace(&g, &movies[1].profile, 100);
        assert_ne!(t1, t2);
        assert_eq!(road_presets().len(), 3);
    }

    #[test]
    fn split_halves() {
        let g = mpeg_ctg();
        let trace = generate_trace(&g, &DriftProfile::new(1), 2000);
        let (train, test) = split_train_test(&trace);
        assert_eq!(train.len(), 1000);
        assert_eq!(test.len(), 1000);
    }
}
