//! Scene intersection front end: acceleration-structure choice and the
//! scalar vs. vectorized ("VFPU") test paths.
//!
//! The paper's future work includes vectorizing the plane-intersection
//! operations on the node's Weitek vector FPU. [`VectorMode::Vectorized`]
//! models that: primitives are tested in fixed-width batches
//! ([`VECTOR_WIDTH`]), each batch counting as *one* vector chunk in the
//! work counters instead of `VECTOR_WIDTH` scalar tests. The results are
//! bit-identical to the scalar path — only the cost accounting (and the
//! batch-structured code path) differ, which is exactly the ablation the
//! benchmarks measure.

use crate::bvh::Bvh;
use crate::geometry::{Hit, Intersect};
use crate::math::Ray;
use crate::scene::Scene;
use crate::work::WorkCounters;

/// Primitives tested per vector chunk (the WTL2264/2265 pipelines four
/// double-precision operations per chained cycle group).
pub const VECTOR_WIDTH: usize = 4;

/// Which acceleration structure to traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Accel {
    /// Test every primitive (the paper's implemented tracer).
    #[default]
    BruteForce,
    /// Bounding-volume hierarchy (the paper's future work).
    Bvh,
}

/// Scalar FPU or batched vector-unit intersection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VectorMode {
    /// One test at a time on the MC68882.
    #[default]
    Scalar,
    /// Batches of [`VECTOR_WIDTH`] on the VFPU.
    Vectorized,
}

/// A scene prepared for intersection queries.
///
/// # Examples
///
/// ```
/// use raytracer::intersect::{Accel, SceneIndex, VectorMode};
/// use raytracer::math::{Ray, Vec3};
/// use raytracer::scenes;
/// use raytracer::work::WorkCounters;
///
/// let (scene, _cam) = scenes::moderate_scene();
/// let index = SceneIndex::build(&scene, Accel::Bvh, VectorMode::Scalar);
/// let ray = Ray::new(Vec3::new(0.0, 2.0, 14.0), Vec3::new(0.0, -0.1, -1.0));
/// let mut work = WorkCounters::new();
/// assert!(index.closest_hit(&ray, &mut work).is_some());
/// ```
#[derive(Debug)]
pub struct SceneIndex<'a> {
    scene: &'a Scene,
    bvh: Option<Bvh>,
    accel: Accel,
    vector_mode: VectorMode,
    bounded: Vec<usize>,
    unbounded: Vec<usize>,
}

impl<'a> SceneIndex<'a> {
    /// Prepares a scene for queries; builds the BVH when requested.
    pub fn build(scene: &'a Scene, accel: Accel, vector_mode: VectorMode) -> Self {
        let bvh = match accel {
            Accel::BruteForce => None,
            Accel::Bvh => Some(Bvh::build(scene)),
        };
        SceneIndex {
            scene,
            bvh,
            accel,
            vector_mode,
            bounded: scene.bounded_indices(),
            unbounded: scene.unbounded_indices(),
        }
    }

    /// The underlying scene.
    pub fn scene(&self) -> &Scene {
        self.scene
    }

    /// The configured acceleration structure.
    pub fn accel(&self) -> Accel {
        self.accel
    }

    /// Tests a list of object indices, linearly or in vector batches.
    fn test_list(
        &self,
        indices: &[usize],
        ray: &Ray,
        t_max: &mut f64,
        work: &mut WorkCounters,
    ) -> Option<(usize, Hit)> {
        let mut best = None;
        match self.vector_mode {
            VectorMode::Scalar => {
                for &i in indices {
                    work.scalar_tests += 1;
                    if let Some(h) = self.scene.objects()[i].primitive.intersect(ray, *t_max) {
                        *t_max = h.t;
                        best = Some((i, h));
                    }
                }
            }
            VectorMode::Vectorized => {
                // Batch loop: compute all lane results against the batch-
                // entry t_max (lanes are independent on the VFPU), then
                // reduce — structurally how a vector unit would do it.
                for chunk in indices.chunks(VECTOR_WIDTH) {
                    work.vector_chunks += 1;
                    let entry_t = *t_max;
                    let mut lane_hits: [Option<Hit>; VECTOR_WIDTH] = [None; VECTOR_WIDTH];
                    for (lane, &i) in chunk.iter().enumerate() {
                        lane_hits[lane] = self.scene.objects()[i].primitive.intersect(ray, entry_t);
                    }
                    for (lane, &i) in chunk.iter().enumerate() {
                        if let Some(h) = lane_hits[lane] {
                            if h.t < *t_max {
                                *t_max = h.t;
                                best = Some((i, h));
                            }
                        }
                    }
                }
            }
        }
        best
    }

    /// The closest hit along `ray`, with the index of the hit object.
    pub fn closest_hit(&self, ray: &Ray, work: &mut WorkCounters) -> Option<(usize, Hit)> {
        let mut t_max = f64::INFINITY;
        let mut best = match (&self.bvh, self.accel) {
            (Some(bvh), Accel::Bvh) => {
                let b = bvh.closest_hit(self.scene, ray, t_max, work);
                if let Some((_, h)) = &b {
                    t_max = h.t;
                }
                b
            }
            _ => self.test_list(&self.bounded, ray, &mut t_max, work),
        };
        // Planes are always tested linearly.
        if let Some(hit) = self.test_list(&self.unbounded, ray, &mut t_max, work) {
            best = Some(hit);
        }
        best
    }

    /// Returns `true` if anything blocks `ray` before `t_max`.
    pub fn occluded(&self, ray: &Ray, t_max: f64, work: &mut WorkCounters) -> bool {
        work.shadow_queries += 1;
        match (&self.bvh, self.accel) {
            (Some(bvh), Accel::Bvh) => {
                if bvh.occluded(self.scene, ray, t_max, work) {
                    return true;
                }
            }
            _ => {
                let mut t = t_max;
                if self.test_list(&self.bounded, ray, &mut t, work).is_some() {
                    return true;
                }
            }
        }
        let mut t = t_max;
        self.test_list(&self.unbounded, ray, &mut t, work).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::geometry::{Plane, Sphere};
    use crate::material::Material;
    use crate::math::Vec3;
    use proptest::prelude::*;

    fn scene() -> Scene {
        let mut s = Scene::new(Color::BLACK);
        for i in 0..12 {
            s.add(
                Sphere::new(Vec3::new(i as f64 * 2.5 - 14.0, 0.0, -15.0), 1.0),
                Material::default(),
            );
        }
        s.add(
            Plane::new(Vec3::new(0.0, -3.0, 0.0), Vec3::new(0.0, 1.0, 0.0)),
            Material::default(),
        );
        s
    }

    #[test]
    fn all_four_configurations_agree() {
        let s = scene();
        let configs = [
            (Accel::BruteForce, VectorMode::Scalar),
            (Accel::BruteForce, VectorMode::Vectorized),
            (Accel::Bvh, VectorMode::Scalar),
            (Accel::Bvh, VectorMode::Vectorized),
        ];
        let ray = Ray::new(Vec3::new(-14.0, 0.3, 0.0), Vec3::new(0.0, 0.0, -1.0));
        let hits: Vec<_> = configs
            .iter()
            .map(|&(a, v)| {
                let idx = SceneIndex::build(&s, a, v);
                let mut w = WorkCounters::new();
                idx.closest_hit(&ray, &mut w)
                    .map(|(i, h)| (i, (h.t * 1e9) as u64))
            })
            .collect();
        assert!(hits.windows(2).all(|w| w[0] == w[1]), "{hits:?}");
        assert!(hits[0].is_some());
    }

    #[test]
    fn vectorized_counts_chunks() {
        let s = scene();
        let idx = SceneIndex::build(&s, Accel::BruteForce, VectorMode::Vectorized);
        let ray = Ray::new(Vec3::new(100.0, 100.0, 0.0), Vec3::new(0.0, 0.0, -1.0));
        let mut w = WorkCounters::new();
        idx.closest_hit(&ray, &mut w);
        // 12 bounded spheres -> 3 chunks of 4, plus the plane list as one
        // (partially filled) chunk.
        assert_eq!(w.vector_chunks, 4);
        assert_eq!(w.scalar_tests, 0);
    }

    #[test]
    fn plane_hit_found_with_bvh() {
        // The BVH holds only spheres; the floor plane must still be hit.
        let s = scene();
        let idx = SceneIndex::build(&s, Accel::Bvh, VectorMode::Scalar);
        let ray = Ray::new(Vec3::new(50.0, 0.0, 0.0), Vec3::new(0.0, -1.0, -0.01));
        let mut w = WorkCounters::new();
        let (i, _) = idx.closest_hit(&ray, &mut w).expect("floor must be hit");
        assert_eq!(i, 12);
    }

    #[test]
    fn occlusion_counts_queries() {
        let s = scene();
        let idx = SceneIndex::build(&s, Accel::BruteForce, VectorMode::Scalar);
        let ray = Ray::new(Vec3::new(-14.0, 0.0, 0.0), Vec3::new(0.0, 0.0, -1.0));
        let mut w = WorkCounters::new();
        assert!(idx.occluded(&ray, f64::INFINITY, &mut w));
        assert!(!idx.occluded(&ray, 1.0, &mut w));
        assert_eq!(w.shadow_queries, 2);
    }

    proptest! {
        /// Scalar and vectorized paths return identical hits for random
        /// rays (the VFPU batch is a pure cost-model distinction).
        #[test]
        fn scalar_equals_vectorized(
            ox in -20.0f64..20.0, oy in -5.0f64..5.0,
            dx in -1.0f64..1.0, dy in -1.0f64..1.0,
        ) {
            let s = scene();
            let ray = Ray::new(Vec3::new(ox, oy, 0.0), Vec3::new(dx, dy, -1.0));
            let scalar = SceneIndex::build(&s, Accel::BruteForce, VectorMode::Scalar);
            let vector = SceneIndex::build(&s, Accel::BruteForce, VectorMode::Vectorized);
            let mut w1 = WorkCounters::new();
            let mut w2 = WorkCounters::new();
            let a = scalar.closest_hit(&ray, &mut w1);
            let b = vector.closest_hit(&ray, &mut w2);
            match (a, b) {
                (None, None) => {}
                (Some((i, h1)), Some((j, h2))) => {
                    prop_assert_eq!(i, j);
                    prop_assert!((h1.t - h2.t).abs() < 1e-12);
                }
                other => prop_assert!(false, "mismatch {:?}", other),
            }
        }
    }
}
