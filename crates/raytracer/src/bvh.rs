//! Bounding-volume hierarchy over parallelepipeds.
//!
//! This implements the paper's stated future work: "a hierarchical
//! bounding volume scheme based on parallelopipeds". Bounded primitives
//! are organized in a binary tree of [`Aabb`]s built by median split on
//! the widest centroid axis; traversal visits only subtrees whose boxes
//! the ray enters. Unbounded primitives (planes) cannot be boxed and are
//! handled linearly by the caller.

use crate::geometry::{Aabb, Hit, Intersect};
use crate::math::Ray;
use crate::scene::Scene;
use crate::work::WorkCounters;

/// Maximum primitives per leaf.
const LEAF_SIZE: usize = 4;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        bounds: Aabb,
        /// Indices into the scene's object list.
        objects: Vec<usize>,
    },
    Inner {
        bounds: Aabb,
        left: usize,
        right: usize,
    },
}

impl Node {
    fn bounds(&self) -> &Aabb {
        match self {
            Node::Leaf { bounds, .. } | Node::Inner { bounds, .. } => bounds,
        }
    }
}

/// A BVH over a scene's bounded objects.
///
/// # Examples
///
/// ```
/// use raytracer::bvh::Bvh;
/// use raytracer::color::Color;
/// use raytracer::geometry::Sphere;
/// use raytracer::material::Material;
/// use raytracer::math::{Ray, Vec3};
/// use raytracer::scene::Scene;
/// use raytracer::work::WorkCounters;
///
/// let mut scene = Scene::new(Color::BLACK);
/// for i in 0..8 {
///     scene.add(
///         Sphere::new(Vec3::new(i as f64 * 3.0, 0.0, -10.0), 1.0),
///         Material::default(),
///     );
/// }
/// let bvh = Bvh::build(&scene);
/// let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, -1.0));
/// let mut work = WorkCounters::new();
/// let hit = bvh.closest_hit(&scene, &ray, f64::INFINITY, &mut work).unwrap();
/// assert_eq!(hit.0, 0); // the sphere at x = 0
/// ```
#[derive(Debug, Clone)]
pub struct Bvh {
    nodes: Vec<Node>,
    root: Option<usize>,
}

impl Bvh {
    /// Builds a BVH over the scene's bounded objects. Scenes with no
    /// bounded objects produce an empty (always-miss) hierarchy.
    pub fn build(scene: &Scene) -> Self {
        let mut items: Vec<(usize, Aabb)> = scene
            .bounded_indices()
            .into_iter()
            .map(|i| (i, scene.objects()[i].primitive.bounds()))
            .collect();
        let mut bvh = Bvh {
            nodes: Vec::new(),
            root: None,
        };
        if !items.is_empty() {
            let root = bvh.build_node(&mut items);
            bvh.root = Some(root);
        }
        bvh
    }

    fn build_node(&mut self, items: &mut [(usize, Aabb)]) -> usize {
        let bounds = items.iter().fold(Aabb::empty(), |acc, (_, b)| acc.union(b));
        if items.len() <= LEAF_SIZE {
            self.nodes.push(Node::Leaf {
                bounds,
                objects: items.iter().map(|&(i, _)| i).collect(),
            });
            return self.nodes.len() - 1;
        }
        // Median split on the widest centroid axis.
        let centroid_bounds = items.iter().fold(Aabb::empty(), |mut acc, (_, b)| {
            acc.expand(b.centroid());
            acc
        });
        let axis = centroid_bounds.extent().max_axis();
        items.sort_by(|(_, a), (_, b)| {
            a.centroid()
                .axis(axis)
                .partial_cmp(&b.centroid().axis(axis))
                .expect("finite centroids")
        });
        let mid = items.len() / 2;
        let (lo, hi) = items.split_at_mut(mid);
        let left = self.build_node(lo);
        let right = self.build_node(hi);
        self.nodes.push(Node::Inner {
            bounds,
            left,
            right,
        });
        self.nodes.len() - 1
    }

    /// Returns `true` if the hierarchy contains no objects.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Closest hit among the hierarchy's objects with `t < t_max`.
    /// Returns `(object index, hit)`.
    pub fn closest_hit(
        &self,
        scene: &Scene,
        ray: &Ray,
        mut t_max: f64,
        work: &mut WorkCounters,
    ) -> Option<(usize, Hit)> {
        let mut best: Option<(usize, Hit)> = None;
        let root = self.root?;
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            work.bvh_visits += 1;
            let node = &self.nodes[idx];
            if !node.bounds().hit_by(ray, t_max) {
                continue;
            }
            match node {
                Node::Leaf { objects, .. } => {
                    for &obj in objects {
                        work.scalar_tests += 1;
                        if let Some(hit) = scene.objects()[obj].primitive.intersect(ray, t_max) {
                            t_max = hit.t;
                            best = Some((obj, hit));
                        }
                    }
                }
                Node::Inner { left, right, .. } => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        best
    }

    /// Returns `true` if anything in the hierarchy blocks the ray before
    /// `t_max` (early-out occlusion query for shadows).
    pub fn occluded(&self, scene: &Scene, ray: &Ray, t_max: f64, work: &mut WorkCounters) -> bool {
        let Some(root) = self.root else { return false };
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            work.bvh_visits += 1;
            let node = &self.nodes[idx];
            if !node.bounds().hit_by(ray, t_max) {
                continue;
            }
            match node {
                Node::Leaf { objects, .. } => {
                    for &obj in objects {
                        work.scalar_tests += 1;
                        if scene.objects()[obj]
                            .primitive
                            .intersect(ray, t_max)
                            .is_some()
                        {
                            return true;
                        }
                    }
                }
                Node::Inner { left, right, .. } => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::geometry::Sphere;
    use crate::material::Material;
    use crate::math::Vec3;
    use proptest::prelude::*;

    fn grid_scene(n: usize) -> Scene {
        let mut scene = Scene::new(Color::BLACK);
        for i in 0..n {
            let x = (i % 10) as f64 * 3.0;
            let y = (i / 10) as f64 * 3.0;
            scene.add(
                Sphere::new(Vec3::new(x, y, -20.0), 1.0),
                Material::default(),
            );
        }
        scene
    }

    /// Reference: test every bounded object linearly.
    fn brute_closest(scene: &Scene, ray: &Ray) -> Option<(usize, Hit)> {
        let mut best: Option<(usize, Hit)> = None;
        let mut t_max = f64::INFINITY;
        for i in scene.bounded_indices() {
            if let Some(h) = scene.objects()[i].primitive.intersect(ray, t_max) {
                t_max = h.t;
                best = Some((i, h));
            }
        }
        best
    }

    #[test]
    fn empty_scene_is_empty_bvh() {
        let scene = Scene::new(Color::BLACK);
        let bvh = Bvh::build(&scene);
        assert!(bvh.is_empty());
        let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0));
        let mut w = WorkCounters::new();
        assert!(bvh
            .closest_hit(&scene, &ray, f64::INFINITY, &mut w)
            .is_none());
        assert!(!bvh.occluded(&scene, &ray, f64::INFINITY, &mut w));
    }

    #[test]
    fn bvh_prunes_tests() {
        let scene = grid_scene(100);
        let bvh = Bvh::build(&scene);
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, -1.0));
        let mut w = WorkCounters::new();
        bvh.closest_hit(&scene, &ray, f64::INFINITY, &mut w);
        assert!(
            w.scalar_tests < 100 / 2,
            "BVH tested {} of 100 primitives — no pruning",
            w.scalar_tests
        );
    }

    #[test]
    fn occlusion_early_out() {
        let scene = grid_scene(100);
        let bvh = Bvh::build(&scene);
        // Shadow ray straight into the first sphere.
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, -1.0));
        let mut w = WorkCounters::new();
        assert!(bvh.occluded(&scene, &ray, f64::INFINITY, &mut w));
        assert!(
            w.scalar_tests <= LEAF_SIZE as u64 * 4,
            "occlusion should stop early"
        );
    }

    proptest! {
        /// BVH and brute force agree on the closest hit for random rays.
        #[test]
        fn bvh_equals_brute_force(
            ox in -5.0f64..35.0, oy in -5.0f64..35.0,
            tx in -5.0f64..35.0, ty in -5.0f64..35.0,
        ) {
            let scene = grid_scene(60);
            let bvh = Bvh::build(&scene);
            let origin = Vec3::new(ox, oy, 5.0);
            let target = Vec3::new(tx, ty, -20.0);
            let ray = Ray::new(origin, target - origin);
            let mut w = WorkCounters::new();
            let fast = bvh.closest_hit(&scene, &ray, f64::INFINITY, &mut w);
            let slow = brute_closest(&scene, &ray);
            match (fast, slow) {
                (None, None) => {}
                (Some((i, h1)), Some((j, h2))) => {
                    prop_assert_eq!(i, j);
                    prop_assert!((h1.t - h2.t).abs() < 1e-9);
                }
                other => prop_assert!(false, "mismatch: {:?}", other),
            }
        }
    }
}
