//! Point-to-point communication links.

use crate::pe::PeId;

/// A directed communication link between two PEs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Bandwidth in Kbytes per time unit (`B(pi, pj)`).
    pub bandwidth: f64,
    /// Transmission energy per Kbyte (`E_tr(pi, pj)`).
    pub energy_per_kb: f64,
}

/// The full link matrix of the platform.
///
/// Intra-PE transfers are free and instantaneous. Voltage scaling is never
/// applied to communication (paper §II). Each PE owns a dedicated
/// communication resource, so transfers on distinct links never contend.
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    pub(crate) links: Vec<Vec<Option<Link>>>,
}

impl CommMatrix {
    /// Creates a matrix with no inter-PE links for `n` PEs.
    pub fn disconnected(n: usize) -> Self {
        CommMatrix {
            links: vec![vec![None; n]; n],
        }
    }

    /// Creates a fully connected matrix where every ordered PE pair shares
    /// the same bandwidth and per-Kbyte energy.
    pub fn uniform(n: usize, bandwidth: f64, energy_per_kb: f64) -> Self {
        let mut m = CommMatrix::disconnected(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.links[i][j] = Some(Link {
                        bandwidth,
                        energy_per_kb,
                    });
                }
            }
        }
        m
    }

    /// The link from `src` to `dst`, if any. Self links are `None`.
    pub fn link(&self, src: PeId, dst: PeId) -> Option<Link> {
        self.links[src.index()][dst.index()]
    }

    /// Whether a transfer from `src` to `dst` is possible (always true for
    /// `src == dst`).
    pub fn connected(&self, src: PeId, dst: PeId) -> bool {
        src == dst || self.link(src, dst).is_some()
    }

    /// Transfer delay for `kbytes` Kbytes from `src` to `dst`.
    ///
    /// Intra-PE transfers take zero time; missing links yield infinity so an
    /// impossible mapping is never selected by the scheduler.
    #[inline]
    pub fn delay(&self, src: PeId, dst: PeId, kbytes: f64) -> f64 {
        if src == dst || kbytes == 0.0 {
            return 0.0;
        }
        match self.link(src, dst) {
            Some(l) => kbytes / l.bandwidth,
            None => f64::INFINITY,
        }
    }

    /// Transfer energy for `kbytes` Kbytes from `src` to `dst`.
    ///
    /// Intra-PE transfers are free; missing links yield infinity.
    #[inline]
    pub fn energy(&self, src: PeId, dst: PeId, kbytes: f64) -> f64 {
        if src == dst || kbytes == 0.0 {
            return 0.0;
        }
        match self.link(src, dst) {
            Some(l) => kbytes * l.energy_per_kb,
            None => f64::INFINITY,
        }
    }

    /// Number of PEs covered.
    pub fn num_pes(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matrix_connects_all_pairs() {
        let m = CommMatrix::uniform(3, 2.0, 0.5);
        for i in 0..3 {
            for j in 0..3 {
                let (pi, pj) = (PeId::new(i), PeId::new(j));
                assert!(m.connected(pi, pj));
                if i == j {
                    assert!(m.link(pi, pj).is_none());
                }
            }
        }
    }

    #[test]
    fn delay_and_energy() {
        let m = CommMatrix::uniform(2, 2.0, 0.5);
        let (p0, p1) = (PeId::new(0), PeId::new(1));
        assert_eq!(m.delay(p0, p1, 4.0), 2.0);
        assert_eq!(m.energy(p0, p1, 4.0), 2.0);
        assert_eq!(m.delay(p0, p0, 4.0), 0.0);
        assert_eq!(m.energy(p0, p0, 4.0), 0.0);
        assert_eq!(m.delay(p0, p1, 0.0), 0.0);
    }

    #[test]
    fn missing_link_is_infinite() {
        let m = CommMatrix::disconnected(2);
        let (p0, p1) = (PeId::new(0), PeId::new(1));
        assert_eq!(m.delay(p0, p1, 1.0), f64::INFINITY);
        assert_eq!(m.energy(p0, p1, 1.0), f64::INFINITY);
        assert!(!m.connected(p0, p1));
        assert!(m.connected(p0, p0));
    }
}
