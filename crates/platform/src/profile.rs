//! Per-(task, PE) execution profiles.

use crate::pe::PeId;

/// Worst-case execution time and energy of every task on every PE at the
/// nominal supply voltage — the paper's `WCET(τi, pj)` and `E(τi, pj)`.
///
/// Rows are indexed by dense task index, columns by PE index. A value of
/// `f64::INFINITY` in the WCET table marks a task that cannot run on that PE
/// (heterogeneous platforms).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    pub(crate) wcet: Vec<Vec<f64>>,
    pub(crate) energy: Vec<Vec<f64>>,
}

impl ExecProfile {
    /// `WCET(task, pe)` at nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of range.
    #[inline]
    pub fn wcet(&self, task: usize, pe: PeId) -> f64 {
        self.wcet[task][pe.index()]
    }

    /// `E(task, pe)` at nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of range.
    #[inline]
    pub fn energy(&self, task: usize, pe: PeId) -> f64 {
        self.energy[task][pe.index()]
    }

    /// Average WCET of `task` over the PEs that can execute it, at each PE's
    /// maximum frequency (the `wcet*` used by the paper's static levels and
    /// the DLS bias term δ).
    ///
    /// # Panics
    ///
    /// Panics when `task` is out of range or cannot run on any PE.
    pub fn wcet_avg(&self, task: usize) -> f64 {
        let finite: Vec<f64> = self.wcet[task]
            .iter()
            .copied()
            .filter(|w| w.is_finite())
            .collect();
        assert!(!finite.is_empty(), "task {task} cannot run on any PE");
        finite.iter().sum::<f64>() / finite.len() as f64
    }

    /// Whether `task` can execute on `pe`.
    #[inline]
    pub fn can_run(&self, task: usize, pe: PeId) -> bool {
        self.wcet[task][pe.index()].is_finite()
    }

    /// Number of tasks covered by the profile.
    pub fn num_tasks(&self) -> usize {
        self.wcet.len()
    }

    /// Number of PEs covered by the profile.
    pub fn num_pes(&self) -> usize {
        self.wcet.first().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ExecProfile {
        ExecProfile {
            wcet: vec![vec![2.0, 4.0], vec![f64::INFINITY, 3.0]],
            energy: vec![vec![1.0, 2.0], vec![0.0, 3.0]],
        }
    }

    #[test]
    fn lookups() {
        let p = profile();
        assert_eq!(p.wcet(0, PeId::new(1)), 4.0);
        assert_eq!(p.energy(1, PeId::new(1)), 3.0);
        assert_eq!(p.num_tasks(), 2);
        assert_eq!(p.num_pes(), 2);
    }

    #[test]
    fn average_skips_unrunnable_pes() {
        let p = profile();
        assert_eq!(p.wcet_avg(0), 3.0);
        assert_eq!(p.wcet_avg(1), 3.0); // only PE 1 can run task 1
        assert!(p.can_run(0, PeId::new(0)));
        assert!(!p.can_run(1, PeId::new(0)));
    }
}
