//! Condition algebra over branch-selection literals.
//!
//! Runtime conditions in a CTG are boolean functions of the alternatives
//! selected by branch fork nodes. We represent them in disjunctive normal
//! form: a [`Dnf`] is a disjunction of [`Cube`]s, and a cube is a conjunction
//! of [`Literal`]s, each literal asserting "branch fork node *b* selected
//! alternative *a*".
//!
//! Two literals on the same branch node with different alternatives are
//! contradictory, which is what makes conjunction ([`Cube::and`]) partial and
//! gives rise to the mutual-exclusion test used by the scheduler.

use crate::id::TaskId;
use crate::probability::BranchProbs;
use std::fmt;

/// A single branch-selection assertion: branch fork node `branch` selects
/// alternative `alt`.
///
/// ```
/// use ctg_model::{Literal, TaskId};
/// let a1 = Literal::new(TaskId::new(3), 0);
/// let a2 = Literal::new(TaskId::new(3), 1);
/// assert!(a1.contradicts(a2));
/// assert!(!a1.contradicts(a1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    branch: TaskId,
    alt: u8,
}

impl Literal {
    /// Creates a literal asserting that `branch` selects alternative `alt`.
    pub fn new(branch: TaskId, alt: u8) -> Self {
        Literal { branch, alt }
    }

    /// The branch fork node this literal constrains.
    pub fn branch(self) -> TaskId {
        self.branch
    }

    /// The asserted alternative index.
    pub fn alt(self) -> u8 {
        self.alt
    }

    /// Returns `true` when the two literals constrain the same branch to
    /// different alternatives and can therefore never hold together.
    pub fn contradicts(self, other: Literal) -> bool {
        self.branch == other.branch && self.alt != other.alt
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.branch, self.alt)
    }
}

/// A conjunction of literals, with at most one literal per branch node.
///
/// The empty cube is the constant *true* (the paper's minterm "1").
/// Literals are kept sorted by branch id so equal cubes compare equal.
///
/// ```
/// use ctg_model::{Cube, Literal, TaskId};
/// let b = TaskId::new(0);
/// let c1 = Cube::from_literal(Literal::new(b, 0));
/// let c2 = Cube::from_literal(Literal::new(b, 1));
/// assert!(c1.and(&c2).is_none()); // contradictory
/// assert!(Cube::top().implies(&Cube::top()));
/// assert!(c1.implies(&Cube::top()));
/// assert!(!Cube::top().implies(&c1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cube {
    literals: Vec<Literal>,
}

impl Cube {
    /// The constant-true cube (empty conjunction).
    pub fn top() -> Self {
        Cube::default()
    }

    /// A cube consisting of a single literal.
    pub fn from_literal(lit: Literal) -> Self {
        Cube {
            literals: vec![lit],
        }
    }

    /// Builds a cube from an iterator of literals.
    ///
    /// Returns `None` when two literals contradict each other.
    pub fn from_literals<I: IntoIterator<Item = Literal>>(lits: I) -> Option<Self> {
        let mut cube = Cube::top();
        for lit in lits {
            cube = cube.with(lit)?;
        }
        Some(cube)
    }

    /// Returns this cube extended with `lit`, or `None` on contradiction.
    pub fn with(&self, lit: Literal) -> Option<Self> {
        match self
            .literals
            .binary_search_by_key(&lit.branch(), |l| l.branch())
        {
            Ok(pos) => {
                if self.literals[pos].alt() == lit.alt() {
                    Some(self.clone())
                } else {
                    None
                }
            }
            Err(pos) => {
                let mut lits = self.literals.clone();
                lits.insert(pos, lit);
                Some(Cube { literals: lits })
            }
        }
    }

    /// Conjunction of two cubes, `None` when contradictory.
    pub fn and(&self, other: &Cube) -> Option<Cube> {
        let mut cube = self.clone();
        for &lit in &other.literals {
            cube = cube.with(lit)?;
        }
        Some(cube)
    }

    /// Returns `true` when this cube logically implies `other`
    /// (i.e. every literal of `other` also appears here).
    pub fn implies(&self, other: &Cube) -> bool {
        other
            .literals
            .iter()
            .all(|lit| self.alt_of(lit.branch()) == Some(lit.alt()))
    }

    /// The alternative this cube asserts for `branch`, if any.
    pub fn alt_of(&self, branch: TaskId) -> Option<u8> {
        self.literals
            .binary_search_by_key(&branch, |l| l.branch())
            .ok()
            .map(|pos| self.literals[pos].alt())
    }

    /// Whether this is the constant-true cube.
    pub fn is_top(&self) -> bool {
        self.literals.is_empty()
    }

    /// The literals of this cube in branch-id order.
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// Number of literals in the cube.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Whether the cube has no literals (equivalent to [`Cube::is_top`]).
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Evaluates the cube under a complete assignment `alt_of(branch)`.
    ///
    /// The closure must return the selected alternative for every branch that
    /// appears in the cube; branches whose selection is undefined (because the
    /// fork node is not activated) should be reported as `None`, which makes
    /// the cube evaluate to `false`.
    pub fn eval<F: Fn(TaskId) -> Option<u8>>(&self, alt_of: F) -> bool {
        self.literals
            .iter()
            .all(|lit| alt_of(lit.branch()) == Some(lit.alt()))
    }

    /// Probability of the cube under independent branch probabilities:
    /// the product of the probability of each asserted alternative.
    ///
    /// This matches the paper's usage (e.g. `prob(a2·b1) = prob(a2)·prob(b1)`).
    pub fn probability(&self, probs: &BranchProbs) -> f64 {
        self.literals
            .iter()
            .map(|lit| probs.prob(lit.branch(), lit.alt()))
            .product()
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            return write!(f, "1");
        }
        let mut first = true;
        for lit in &self.literals {
            if !first {
                write!(f, "·")?;
            }
            write!(f, "{lit}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Literal> for Option<Cube> {
    fn from_iter<I: IntoIterator<Item = Literal>>(iter: I) -> Self {
        Cube::from_literals(iter)
    }
}

/// A disjunction of cubes — the general representation of an activation
/// condition `X(τ)`.
///
/// The empty DNF is the constant *false*; a DNF containing the top cube is
/// the constant *true*.
///
/// ```
/// use ctg_model::{Cube, Dnf, Literal, TaskId};
/// let b = TaskId::new(0);
/// let a1 = Cube::from_literal(Literal::new(b, 0));
/// let a2 = Cube::from_literal(Literal::new(b, 1));
/// let x = Dnf::from_cubes([a1.clone()]);
/// let y = Dnf::from_cubes([a2]);
/// assert!(x.and(&y).is_false()); // mutually exclusive
/// assert!(!x.and(&Dnf::top()).is_false());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Dnf {
    cubes: Vec<Cube>,
}

impl Dnf {
    /// The constant-false DNF (empty disjunction).
    pub fn false_() -> Self {
        Dnf::default()
    }

    /// The constant-true DNF (single top cube).
    pub fn top() -> Self {
        Dnf {
            cubes: vec![Cube::top()],
        }
    }

    /// Builds a DNF from cubes, deduplicating but *not* absorbing.
    pub fn from_cubes<I: IntoIterator<Item = Cube>>(cubes: I) -> Self {
        let mut dnf = Dnf::false_();
        for c in cubes {
            dnf.push(c);
        }
        dnf
    }

    /// Adds a cube (deduplicating exact repeats, no absorption).
    pub fn push(&mut self, cube: Cube) {
        if !self.cubes.contains(&cube) {
            self.cubes.push(cube);
        }
    }

    /// Disjunction of two DNFs (deduplicating, no absorption).
    pub fn or(&self, other: &Dnf) -> Dnf {
        let mut out = self.clone();
        for c in &other.cubes {
            out.push(c.clone());
        }
        out
    }

    /// Conjunction of two DNFs by cube-wise distribution; contradictory
    /// products are dropped.
    pub fn and(&self, other: &Dnf) -> Dnf {
        let mut out = Dnf::false_();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.and(b) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Conjunction with a single cube.
    pub fn and_cube(&self, cube: &Cube) -> Dnf {
        let mut out = Dnf::false_();
        for a in &self.cubes {
            if let Some(c) = a.and(cube) {
                out.push(c);
            }
        }
        out
    }

    /// Returns an absorption-simplified copy: any cube implied by a more
    /// general cube in the same DNF is removed.
    ///
    /// For instance `1 ∨ a1` simplifies to `1`.
    pub fn simplified(&self) -> Dnf {
        let mut keep: Vec<Cube> = Vec::new();
        // Sort by literal count so general cubes are considered first.
        let mut cubes = self.cubes.clone();
        cubes.sort_by_key(|c| c.len());
        'outer: for c in cubes {
            for k in &keep {
                if c.implies(k) {
                    continue 'outer;
                }
            }
            keep.push(c);
        }
        keep.sort();
        Dnf { cubes: keep }
    }

    /// Whether this DNF is the constant false.
    pub fn is_false(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Whether this DNF is trivially true (contains the top cube).
    pub fn is_true(&self) -> bool {
        self.cubes.iter().any(Cube::is_top)
    }

    /// The cubes of this DNF.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Evaluates the DNF under a complete assignment (see [`Cube::eval`]).
    pub fn eval<F: Fn(TaskId) -> Option<u8> + Copy>(&self, alt_of: F) -> bool {
        self.cubes.iter().any(|c| c.eval(alt_of))
    }

    /// Returns `true` when the conjunction with `other` is unsatisfiable,
    /// i.e. the two conditions are mutually exclusive.
    ///
    /// Equals `self.and(other).is_false()`, but stops at the first cube pair
    /// whose conjunction exists instead of building the product.
    pub fn disjoint(&self, other: &Dnf) -> bool {
        !self
            .cubes
            .iter()
            .any(|a| other.cubes.iter().any(|b| consistent(a, b)))
    }
}

/// Whether `a.and(b)` exists: no branch carries a literal in both cubes
/// with different alternatives. Both literal lists are sorted by branch
/// with one literal per branch, so one merge pass finds every shared
/// branch.
fn consistent(a: &Cube, b: &Cube) -> bool {
    let (a, b) = (a.literals(), b.literals());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].branch().cmp(&b[j].branch()) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i].alt() != b[j].alt() {
                    return false;
                }
                i += 1;
                j += 1;
            }
        }
    }
    true
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_false() {
            return write!(f, "0");
        }
        let mut first = true;
        for c in &self.cubes {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Cube> for Dnf {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Dnf::from_cubes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(b: usize, a: u8) -> Literal {
        Literal::new(TaskId::new(b), a)
    }

    #[test]
    fn literal_contradiction() {
        assert!(lit(1, 0).contradicts(lit(1, 1)));
        assert!(!lit(1, 0).contradicts(lit(2, 1)));
        assert!(!lit(1, 0).contradicts(lit(1, 0)));
    }

    #[test]
    fn cube_with_keeps_sorted_and_detects_contradiction() {
        let c = Cube::from_literals([lit(3, 1), lit(1, 0)]).unwrap();
        assert_eq!(c.literals()[0], lit(1, 0));
        assert_eq!(c.literals()[1], lit(3, 1));
        assert!(c.with(lit(3, 0)).is_none());
        assert_eq!(c.with(lit(3, 1)).unwrap(), c);
    }

    #[test]
    fn cube_and_implies() {
        let a1 = Cube::from_literal(lit(0, 0));
        let b1 = Cube::from_literal(lit(1, 0));
        let both = a1.and(&b1).unwrap();
        assert!(both.implies(&a1));
        assert!(both.implies(&b1));
        assert!(!a1.implies(&both));
        assert!(both.implies(&Cube::top()));
    }

    #[test]
    fn cube_eval() {
        let c = Cube::from_literals([lit(0, 1), lit(1, 0)]).unwrap();
        assert!(c.eval(|b| if b.index() == 0 { Some(1) } else { Some(0) }));
        assert!(!c.eval(|_| Some(0)));
        // Unassigned branch makes the cube false.
        assert!(!c.eval(|b| if b.index() == 0 { Some(1) } else { None }));
        assert!(Cube::top().eval(|_| None));
    }

    #[test]
    fn dnf_and_distributes_and_drops_contradictions() {
        let a1 = Dnf::from_cubes([Cube::from_literal(lit(0, 0))]);
        let a2 = Dnf::from_cubes([Cube::from_literal(lit(0, 1))]);
        assert!(a1.and(&a2).is_false());
        assert!(a1.disjoint(&a2));
        let t = Dnf::top();
        assert_eq!(a1.and(&t), a1);
    }

    #[test]
    fn dnf_simplify_absorbs() {
        let raw = Dnf::from_cubes([Cube::top(), Cube::from_literal(lit(0, 0))]);
        let s = raw.simplified();
        assert_eq!(s.cubes().len(), 1);
        assert!(s.is_true());
        // Raw keeps both, matching the paper's Γ(τ8) = {1, a1}.
        assert_eq!(raw.cubes().len(), 2);
    }

    #[test]
    fn dnf_or_dedups() {
        let a = Dnf::from_cubes([Cube::from_literal(lit(0, 0))]);
        let b = a.or(&a);
        assert_eq!(b.cubes().len(), 1);
    }

    #[test]
    fn dnf_eval_any_cube() {
        let d = Dnf::from_cubes([Cube::from_literal(lit(0, 0)), Cube::from_literal(lit(1, 1))]);
        assert!(d.eval(|_| Some(0)));
        assert!(d.eval(|_| Some(1)));
        assert!(!d.eval(|b| if b.index() == 0 { Some(1) } else { Some(0) }));
        assert!(!Dnf::false_().eval(|_| Some(0)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cube::top().to_string(), "1");
        assert_eq!(Dnf::false_().to_string(), "0");
        let c = Cube::from_literals([lit(3, 0), lit(5, 1)]).unwrap();
        assert_eq!(c.to_string(), "t3=0·t5=1");
    }
}
