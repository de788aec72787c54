//! An object partition: one processor's fraction of the scene geometry.
//!
//! Object partitioning's selling point is memory: each processor stores
//! only `1/N` of the geometry (the paper: scene descriptions "are often
//! very long and need a lot of memory"). Materials and lights are small
//! and stay replicated; the *objects* are dealt round-robin.

use raytracer::intersect::{Accel, SceneIndex, VectorMode};
use raytracer::math::Ray;
use raytracer::scene::Scene;
use raytracer::work::WorkCounters;

use super::wavefront::RadianceAnswer;

/// One partition's geometry plus the mapping back to global object
/// indices.
#[derive(Debug)]
pub struct PartitionIndex {
    subset: Scene,
    global: Vec<u32>,
}

impl PartitionIndex {
    /// Builds partition `k` of `n`: objects `i` with `i % n == k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n` or `n` is zero.
    pub fn build(scene: &Scene, k: u32, n: u32) -> PartitionIndex {
        assert!(n > 0, "need at least one partition");
        assert!(k < n, "partition index {k} out of {n}");
        let mut subset = Scene::new(scene.background());
        subset.set_ambient(scene.ambient());
        let mut global = Vec::new();
        for (i, obj) in scene.objects().iter().enumerate() {
            if i as u32 % n == k {
                subset.add(obj.primitive, obj.material);
                global.push(i as u32);
            }
        }
        PartitionIndex { subset, global }
    }

    /// Number of objects stored here — the memory footprint argument.
    pub fn object_count(&self) -> usize {
        self.global.len()
    }

    /// This partition's nearest hit for `ray`, as a global-index answer.
    pub fn nearest(&self, ray: &Ray, work: &mut WorkCounters) -> Option<RadianceAnswer> {
        let index = SceneIndex::build(&self.subset, Accel::BruteForce, VectorMode::Scalar);
        index
            .closest_hit(ray, work)
            .map(|(local, hit)| RadianceAnswer {
                object: self.global[local],
                hit,
            })
    }

    /// Whether anything in this partition blocks `ray` before `t_max`.
    pub fn occluded(&self, ray: &Ray, t_max: f64, work: &mut WorkCounters) -> bool {
        let index = SceneIndex::build(&self.subset, Accel::BruteForce, VectorMode::Scalar);
        index.occluded(ray, t_max, work)
    }

    /// Answers a whole round of tasks, accumulating work counters.
    pub fn answer_round(
        &self,
        tasks: &[super::wavefront::RayTask],
        work: &mut WorkCounters,
    ) -> Vec<PartitionAnswer> {
        use super::wavefront::TaskKind;
        tasks
            .iter()
            .map(|t| match t.kind {
                TaskKind::Radiance { .. } => PartitionAnswer {
                    id: t.id,
                    radiance: self.nearest(&t.ray, work),
                    blocked: false,
                },
                TaskKind::Shadow { t_max, .. } => PartitionAnswer {
                    id: t.id,
                    radiance: None,
                    blocked: self.occluded(&t.ray, t_max, work),
                },
            })
            .collect()
    }
}

/// One partition's answer to one task (the wire format of the
/// distributed version).
#[derive(Debug, Clone, Copy)]
pub struct PartitionAnswer {
    /// The task answered.
    pub id: u32,
    /// Nearest-hit answer for radiance tasks.
    pub radiance: Option<RadianceAnswer>,
    /// Occlusion verdict for shadow tasks.
    pub blocked: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use raytracer::scenes;

    #[test]
    fn partitions_split_geometry_round_robin() {
        let (scene, _) = scenes::moderate_scene();
        let total = scene.primitive_count();
        let parts: Vec<PartitionIndex> = (0..4)
            .map(|k| PartitionIndex::build(&scene, k, 4))
            .collect();
        let sum: usize = parts.iter().map(PartitionIndex::object_count).sum();
        assert_eq!(sum, total);
        // Round-robin keeps sizes within one of each other.
        let max = parts
            .iter()
            .map(PartitionIndex::object_count)
            .max()
            .unwrap();
        let min = parts
            .iter()
            .map(PartitionIndex::object_count)
            .min()
            .unwrap();
        assert!(max - min <= 1);
        // Global indices are disjoint and cover 0..total.
        let mut all: Vec<u32> = parts
            .iter()
            .flat_map(|p| p.global.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total as u32).collect::<Vec<_>>());
    }

    #[test]
    fn partition_nearest_maps_to_global_indices() {
        let (scene, camera) = scenes::quickstart_scene();
        let ray = camera.ray_for(6, 6, 12, 12, (0.5, 0.5));
        // Full-scene reference.
        let full = PartitionIndex::build(&scene, 0, 1);
        let mut w = WorkCounters::new();
        let reference = full.nearest(&ray, &mut w).expect("center ray hits");
        // The same winner must emerge from the partition that owns it.
        let parts: Vec<PartitionIndex> = (0..3)
            .map(|k| PartitionIndex::build(&scene, k, 3))
            .collect();
        let best = parts
            .iter()
            .filter_map(|p| p.nearest(&ray, &mut WorkCounters::new()))
            .min_by(|a, b| {
                a.hit
                    .t
                    .partial_cmp(&b.hit.t)
                    .unwrap()
                    .then(a.object.cmp(&b.object))
            })
            .expect("some partition hits");
        assert_eq!(best.object, reference.object);
        assert!((best.hit.t - reference.hit.t).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn bad_partition_index_panics() {
        let (scene, _) = scenes::quickstart_scene();
        PartitionIndex::build(&scene, 3, 3);
    }
}
