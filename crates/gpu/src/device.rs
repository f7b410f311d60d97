//! A simulated device's link-traffic accounting.

/// Halo traffic of one device split by link locality (NVLink within a node,
/// NIC across nodes) — the distinction behind the paper's weak-scaling
/// "initial cost of parallelism" between 4 and 16 GPUs (§4.3/§6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkTraffic {
    pub intra_msgs: u64,
    pub intra_bytes: u64,
    pub inter_msgs: u64,
    pub inter_bytes: u64,
}

impl LinkTraffic {
    pub fn record(&mut self, bytes: u64, same_node: bool) {
        if same_node {
            self.intra_msgs += 1;
            self.intra_bytes += bytes;
        } else {
            self.inter_msgs += 1;
            self.inter_bytes += bytes;
        }
    }

    pub fn merge(&mut self, o: &LinkTraffic) {
        self.intra_msgs += o.intra_msgs;
        self.intra_bytes += o.intra_bytes;
        self.inter_msgs += o.inter_msgs;
        self.inter_bytes += o.inter_bytes;
    }

    /// Boundary-class extrapolation to paper scale: per-step traffic scales
    /// with the subdomain surface (× s) over × s more steps; message counts
    /// are per-step (× s).
    pub fn extrapolate(&self, s: f64) -> LinkTraffic {
        let f = |v: u64, k: f64| (v as f64 * k).round() as u64;
        LinkTraffic {
            intra_msgs: f(self.intra_msgs, s),
            intra_bytes: f(self.intra_bytes, s * s),
            inter_msgs: f(self.inter_msgs, s),
            inter_bytes: f(self.inter_bytes, s * s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_record_by_locality() {
        let mut l = LinkTraffic::default();
        l.record(100, true);
        l.record(200, false);
        l.record(50, false);
        assert_eq!(l.intra_msgs, 1);
        assert_eq!(l.intra_bytes, 100);
        assert_eq!(l.inter_msgs, 2);
        assert_eq!(l.inter_bytes, 250);
    }

    #[test]
    fn link_merge_and_extrapolate() {
        let mut a = LinkTraffic {
            intra_msgs: 1,
            intra_bytes: 10,
            inter_msgs: 2,
            inter_bytes: 20,
        };
        a.merge(&a.clone());
        assert_eq!(a.inter_bytes, 40);
        let e = a.extrapolate(3.0);
        assert_eq!(e.intra_msgs, 6);
        assert_eq!(e.intra_bytes, 180);
        assert_eq!(e.inter_msgs, 12);
        assert_eq!(e.inter_bytes, 360);
    }
}
