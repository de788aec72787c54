//! Machine topology: node ↔ cluster mapping and route classification.
//!
//! SUPRENUM's interconnect is two-level: nodes within a cluster share the
//! dual cluster bus; clusters are linked in a torus by the bit-serial
//! SUPRENUM bus (token ring). A message therefore takes one of three
//! route classes, each with a different cost model:
//!
//! * [`Route::Local`] — both processes on the same node (kernel copy);
//! * [`Route::IntraCluster`] — over the cluster bus;
//! * [`Route::InterCluster`] — cluster bus → communication node → token
//!   ring (some number of cluster hops) → communication node → cluster
//!   bus.

use crate::config::MachineConfig;
use crate::ids::{ClusterId, NodeId};

/// Which path a message takes through the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Same node: no bus involved.
    Local,
    /// Same cluster: one cluster-bus transfer.
    IntraCluster {
        /// The shared cluster.
        cluster: ClusterId,
    },
    /// Different clusters: both cluster buses plus `ring_hops` hops on
    /// the SUPRENUM-bus torus.
    InterCluster {
        /// Source cluster.
        src_cluster: ClusterId,
        /// Destination cluster.
        dst_cluster: ClusterId,
        /// Minimal hop count through the torus.
        ring_hops: u32,
    },
}

/// Static topology derived from a [`MachineConfig`].
///
/// # Examples
///
/// ```
/// use suprenum::{MachineConfig, NodeId, Topology};
///
/// let topo = Topology::new(&MachineConfig::full_machine());
/// assert_eq!(topo.cluster_of(NodeId::new(0)).index(), 0);
/// assert_eq!(topo.cluster_of(NodeId::new(16)).index(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    clusters: u8,
    torus_cols: u8,
    nodes_per_cluster: u8,
}

impl Topology {
    /// Builds the topology for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(cfg: &MachineConfig) -> Self {
        cfg.validate()
            .expect("topology requires a valid configuration");
        Topology {
            clusters: cfg.clusters,
            torus_cols: cfg.torus_cols,
            nodes_per_cluster: cfg.nodes_per_cluster,
        }
    }

    /// Total processing nodes.
    pub fn total_nodes(&self) -> u16 {
        self.clusters as u16 * self.nodes_per_cluster as u16
    }

    /// Number of clusters.
    pub fn clusters(&self) -> u8 {
        self.clusters
    }

    /// The cluster containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        assert!(
            node.index() < self.total_nodes(),
            "node {node} out of range"
        );
        ClusterId::new((node.index() / self.nodes_per_cluster as u16) as u8)
    }

    /// Nodes in each cluster.
    pub fn nodes_per_cluster(&self) -> u8 {
        self.nodes_per_cluster
    }

    /// The lowest node id of a cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn first_node(&self, cluster: ClusterId) -> NodeId {
        assert!(
            cluster.index() < self.clusters,
            "cluster {cluster} out of range"
        );
        NodeId::new(cluster.index() as u16 * self.nodes_per_cluster as u16)
    }

    /// Torus coordinates (row, col) of a cluster.
    pub fn torus_coords(&self, cluster: ClusterId) -> (u8, u8) {
        assert!(
            cluster.index() < self.clusters,
            "cluster {cluster} out of range"
        );
        (
            cluster.index() / self.torus_cols,
            cluster.index() % self.torus_cols,
        )
    }

    /// Minimal number of ring hops between two clusters on the torus
    /// (wrap-around Manhattan distance).
    pub fn ring_hops(&self, a: ClusterId, b: ClusterId) -> u32 {
        let (ra, ca) = self.torus_coords(a);
        let (rb, cb) = self.torus_coords(b);
        let rows = self.clusters / self.torus_cols;
        let wrap = |x: u8, y: u8, n: u8| -> u32 {
            let d = (x as i32 - y as i32).unsigned_abs();
            d.min(n as u32 - d)
        };
        wrap(ra, rb, rows) + wrap(ca, cb, self.torus_cols)
    }

    /// Classifies the route from `src` to `dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        if src == dst {
            return Route::Local;
        }
        let sc = self.cluster_of(src);
        let dc = self.cluster_of(dst);
        if sc == dc {
            Route::IntraCluster { cluster: sc }
        } else {
            Route::InterCluster {
                src_cluster: sc,
                dst_cluster: dc,
                ring_hops: self.ring_hops(sc, dc),
            }
        }
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.total_nodes()).map(NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> Topology {
        Topology::new(&MachineConfig::full_machine())
    }

    #[test]
    fn cluster_mapping() {
        let t = full();
        assert_eq!(t.cluster_of(NodeId::new(15)).index(), 0);
        assert_eq!(t.cluster_of(NodeId::new(16)).index(), 1);
        assert_eq!(t.cluster_of(NodeId::new(255)).index(), 15);
        assert_eq!(t.total_nodes(), 256);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        full().cluster_of(NodeId::new(256));
    }

    #[test]
    fn route_classes() {
        let t = full();
        assert_eq!(t.route(NodeId::new(3), NodeId::new(3)), Route::Local);
        assert_eq!(
            t.route(NodeId::new(3), NodeId::new(4)),
            Route::IntraCluster {
                cluster: ClusterId::new(0)
            }
        );
        match t.route(NodeId::new(0), NodeId::new(255)) {
            Route::InterCluster {
                src_cluster,
                dst_cluster,
                ring_hops,
            } => {
                assert_eq!(src_cluster.index(), 0);
                assert_eq!(dst_cluster.index(), 15);
                // C0 is at (0,0), C15 at (3,3): wrap distance 1+1 = 2.
                assert_eq!(ring_hops, 2);
            }
            other => panic!("expected inter-cluster route, got {other:?}"),
        }
    }

    #[test]
    fn torus_wraparound_distance() {
        let t = full();
        // C0 (0,0) to C3 (0,3): direct distance 3, wrapped distance 1.
        assert_eq!(t.ring_hops(ClusterId::new(0), ClusterId::new(3)), 1);
        // C0 to C12 (3,0): wrapped row distance 1.
        assert_eq!(t.ring_hops(ClusterId::new(0), ClusterId::new(12)), 1);
        // C0 to C5 (1,1): 1+1.
        assert_eq!(t.ring_hops(ClusterId::new(0), ClusterId::new(5)), 2);
        // Symmetry.
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(
                    t.ring_hops(ClusterId::new(a), ClusterId::new(b)),
                    t.ring_hops(ClusterId::new(b), ClusterId::new(a))
                );
            }
        }
    }

    #[test]
    fn single_cluster_has_no_ring_routes() {
        let t = Topology::new(&MachineConfig::single_cluster(16));
        for a in t.nodes() {
            for b in t.nodes() {
                assert!(!matches!(t.route(a, b), Route::InterCluster { .. }));
            }
        }
    }
}
