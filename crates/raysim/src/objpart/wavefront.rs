//! Wavefront formulation of Whitted ray tracing.
//!
//! Object partitioning (paper §4.1: "each processor takes care of a
//! certain fraction of the objects in the scene") cannot use the
//! recursive tracer: no single processor can answer a nearest-hit query
//! alone. Instead the computation proceeds in *rounds* over a wavefront
//! of ray tasks: every ray is broadcast to all partitions, each returns
//! its local nearest hit (or occlusion verdict), a reduction picks the
//! global winner, and shading spawns the next generation of rays.
//!
//! [`WavefrontEngine`] implements the round logic against abstract
//! `nearest`/`occluded` answers, so the same code drives both the
//! in-process reference (used to prove colour-exact equivalence with the
//! recursive tracer) and the distributed master in
//! [`crate::objpart::master`].

use raytracer::color::Color;
use raytracer::geometry::Hit;
use raytracer::material::Material;
use raytracer::math::Ray;
use raytracer::scene::Scene;

/// One ray task in the wavefront.
#[derive(Debug, Clone, Copy)]
pub struct RayTask {
    /// Task id, unique within its round.
    pub id: u32,
    /// The ray.
    pub ray: Ray,
    /// What kind of answer the task needs.
    pub kind: TaskKind,
}

/// The task's role.
#[derive(Debug, Clone, Copy)]
pub enum TaskKind {
    /// A radiance ray: needs the global nearest hit.
    Radiance {
        /// Destination pixel (linear index).
        pixel: u32,
        /// Accumulated throughput weight.
        weight: Color,
        /// Recursion depth.
        depth: u32,
    },
    /// A shadow ray: needs a boolean "blocked before `t_max`".
    Shadow {
        /// Distance to the light.
        t_max: f64,
        /// Destination pixel.
        pixel: u32,
        /// The lighting contribution added if unblocked.
        contribution: Color,
    },
}

/// A partition's answer to a radiance task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadianceAnswer {
    /// Global object index of the hit.
    pub object: u32,
    /// The hit.
    pub hit: Hit,
}

/// The reduced (global) answers for one round, indexed by task id.
#[derive(Debug, Clone, Default)]
pub struct RoundAnswers {
    /// `radiance[id]` = the winning hit, if any.
    pub radiance: Vec<Option<RadianceAnswer>>,
    /// `shadow[id]` = blocked?
    pub shadow: Vec<bool>,
}

impl RoundAnswers {
    /// Creates an answer table sized for `tasks`.
    pub fn sized_for(tasks: &[RayTask]) -> RoundAnswers {
        RoundAnswers {
            radiance: vec![None; tasks.len()],
            shadow: vec![false; tasks.len()],
        }
    }

    /// Merges a partition's radiance answer: keep the closer hit, with
    /// ties broken by the lower global object index (matching the
    /// sequential tracer's first-wins iteration order).
    pub fn merge_radiance(&mut self, id: u32, answer: RadianceAnswer) {
        let slot = &mut self.radiance[id as usize];
        let better = match slot {
            None => true,
            Some(cur) => {
                answer.hit.t < cur.hit.t
                    || (answer.hit.t == cur.hit.t && answer.object < cur.object)
            }
        };
        if better {
            *slot = Some(answer);
        }
    }

    /// Merges a partition's occlusion verdict.
    pub fn merge_shadow(&mut self, id: u32, blocked: bool) {
        if blocked {
            self.shadow[id as usize] = true;
        }
    }
}

/// The master-side engine: pixel accumulation plus round shading.
#[derive(Debug)]
pub struct WavefrontEngine {
    materials: Vec<Material>,
    lights: Vec<raytracer::material::Light>,
    ambient: Color,
    background: Color,
    max_depth: u32,
    pixels: Vec<Color>,
    /// Shading operations performed (for cost accounting).
    pub shadings: u64,
    /// Rays generated across all rounds.
    pub rays_generated: u64,
}

impl WavefrontEngine {
    /// Creates an engine for an image of `pixel_count` pixels. Only the
    /// scene's *small* replicated parts are taken: materials, lights,
    /// ambient and background — the geometry stays distributed.
    pub fn new(scene: &Scene, pixel_count: u32, max_depth: u32) -> WavefrontEngine {
        WavefrontEngine {
            materials: scene.objects().iter().map(|o| o.material).collect(),
            lights: scene.lights().to_vec(),
            ambient: scene.ambient(),
            background: scene.background(),
            max_depth,
            pixels: vec![Color::BLACK; pixel_count as usize],
            shadings: 0,
            rays_generated: 0,
        }
    }

    /// Seeds the first wavefront with primary rays.
    pub fn primary_tasks<I>(&mut self, rays: I) -> Vec<RayTask>
    where
        I: IntoIterator<Item = (u32, Ray)>,
    {
        let tasks: Vec<RayTask> = rays
            .into_iter()
            .enumerate()
            .map(|(i, (pixel, ray))| RayTask {
                id: i as u32,
                ray,
                kind: TaskKind::Radiance {
                    pixel,
                    weight: Color::WHITE,
                    depth: 0,
                },
            })
            .collect();
        self.rays_generated += tasks.len() as u64;
        tasks
    }

    /// Applies one round's reduced answers; returns the next wavefront.
    /// The computation is finished when the returned wavefront is empty.
    pub fn shade_round(&mut self, tasks: &[RayTask], answers: &RoundAnswers) -> Vec<RayTask> {
        let mut next = Vec::new();
        for task in tasks {
            match task.kind {
                TaskKind::Shadow {
                    pixel,
                    contribution,
                    ..
                } => {
                    if !answers.shadow[task.id as usize] {
                        self.pixels[pixel as usize] += contribution;
                    }
                }
                TaskKind::Radiance {
                    pixel,
                    weight,
                    depth,
                } => match answers.radiance[task.id as usize] {
                    None => {
                        self.pixels[pixel as usize] += self.background.modulate(weight);
                    }
                    Some(ra) => self.shade_hit(&task.ray, &ra, pixel, weight, depth, &mut next),
                },
            }
        }
        for (i, t) in next.iter_mut().enumerate() {
            t.id = i as u32;
        }
        self.rays_generated += next.len() as u64;
        next
    }

    /// Whitted shading of one hit: ambient now, per-light contributions
    /// deferred behind shadow tasks, reflection/refraction spawned as
    /// next-generation radiance tasks. Mirrors
    /// `raytracer::Tracer::trace_depth` exactly, so colours match the
    /// recursive tracer bit for bit.
    fn shade_hit(
        &mut self,
        ray: &Ray,
        ra: &RadianceAnswer,
        pixel: u32,
        weight: Color,
        depth: u32,
        next: &mut Vec<RayTask>,
    ) {
        self.shadings += 1;
        let material = self.materials[ra.object as usize];
        let hit = ra.hit;
        let surface = material.color_at(hit.point);
        self.pixels[pixel as usize] +=
            (self.ambient.modulate(surface) * material.ambient).modulate(weight);

        for light in &self.lights {
            let to_light = light.position - hit.point;
            let distance = to_light.length();
            let l_dir = to_light / distance;
            let n_dot_l = hit.normal.dot(l_dir).max(0.0);
            let mut contribution = Color::BLACK;
            if n_dot_l > 0.0 {
                contribution += light.color.modulate(surface) * (material.diffuse * n_dot_l);
                if material.specular > 0.0 {
                    let h = (l_dir - ray.dir).normalized();
                    let spec = hit.normal.dot(h).max(0.0).powf(material.shininess);
                    contribution += light.color * (material.specular * spec);
                }
            }
            if contribution != Color::BLACK {
                next.push(RayTask {
                    id: 0,
                    ray: Ray {
                        origin: hit.point,
                        dir: l_dir,
                    },
                    kind: TaskKind::Shadow {
                        t_max: distance,
                        pixel,
                        contribution: contribution.modulate(weight),
                    },
                });
            }
        }

        if depth < self.max_depth {
            if material.reflectivity > 0.0 {
                next.push(RayTask {
                    id: 0,
                    ray: Ray::new(hit.point, ray.dir.reflect(hit.normal)),
                    kind: TaskKind::Radiance {
                        pixel,
                        weight: weight * material.reflectivity,
                        depth: depth + 1,
                    },
                });
            }
            if material.transparency > 0.0 {
                let eta = 1.0 / material.ior;
                let (dir, _tir) = match ray.dir.refract(hit.normal, eta) {
                    Some(t) => (t, false),
                    None => (ray.dir.reflect(hit.normal), true),
                };
                next.push(RayTask {
                    id: 0,
                    ray: Ray::new(hit.point, dir),
                    kind: TaskKind::Radiance {
                        pixel,
                        weight: weight * material.transparency,
                        depth: depth + 1,
                    },
                });
            }
        }
    }

    /// The accumulated image.
    pub fn pixels(&self) -> &[Color] {
        &self.pixels
    }
}

/// The small shading detail that makes colour equivalence exact: the
/// recursive tracer casts a shadow ray before evaluating `n·l`, but the
/// colour is identical when zero-contribution shadow rays are skipped —
/// verified by the equivalence test below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::objpart::partition::PartitionIndex;
    use raytracer::intersect::VectorMode;
    use raytracer::math::Vec3;
    use raytracer::tracer::{TraceConfig, Tracer};
    use raytracer::{scenes, Accel};

    /// Render via wavefront rounds over `parts` partitions and compare
    /// with the recursive tracer, pixel for pixel.
    fn assert_equivalent(scene_and_cam: (raytracer::Scene, raytracer::Camera), parts: u32) {
        let (scene, camera) = scene_and_cam;
        let n = 12u32;
        let max_depth = 4;

        // Reference: the recursive tracer (no shadows disabled, scalar).
        let cfg = TraceConfig {
            max_depth,
            accel: Accel::BruteForce,
            vector_mode: VectorMode::Scalar,
            shadows: true,
        };
        let tracer = Tracer::new(&scene, cfg);

        // Wavefront over object partitions.
        let partitions: Vec<PartitionIndex> = (0..parts)
            .map(|k| PartitionIndex::build(&scene, k, parts))
            .collect();
        let mut engine = WavefrontEngine::new(&scene, n * n, max_depth);
        let primaries = (0..n * n).map(|idx| {
            let (px, py) = (idx % n, idx / n);
            (idx, camera.ray_for(px, py, n, n, (0.5, 0.5)))
        });
        let mut tasks = engine.primary_tasks(primaries);
        let mut rounds = 0;
        while !tasks.is_empty() {
            rounds += 1;
            assert!(rounds < 64, "wavefront did not converge");
            let mut answers = RoundAnswers::sized_for(&tasks);
            for p in &partitions {
                let mut work = raytracer::WorkCounters::new();
                for t in &tasks {
                    match t.kind {
                        TaskKind::Radiance { .. } => {
                            if let Some(a) = p.nearest(&t.ray, &mut work) {
                                answers.merge_radiance(t.id, a);
                            }
                        }
                        TaskKind::Shadow { t_max, .. } => {
                            answers.merge_shadow(t.id, p.occluded(&t.ray, t_max, &mut work));
                        }
                    }
                }
            }
            tasks = engine.shade_round(&tasks, &answers);
        }

        for idx in 0..n * n {
            let (px, py) = (idx % n, idx / n);
            let (expected, _) = tracer.render_pixel(&camera, px, py, n, n, 1);
            let got = engine.pixels()[idx as usize];
            assert_eq!(
                got.to_rgb8(),
                expected.to_rgb8(),
                "pixel ({px},{py}) differs (wavefront {got:?} vs recursive {expected:?})"
            );
        }
    }

    #[test]
    fn single_partition_matches_recursive_tracer() {
        assert_equivalent(scenes::quickstart_scene(), 1);
    }

    #[test]
    fn three_partitions_match_recursive_tracer() {
        assert_equivalent(scenes::quickstart_scene(), 3);
    }

    #[test]
    fn moderate_scene_five_partitions_match() {
        assert_equivalent(scenes::moderate_scene(), 5);
    }

    #[test]
    fn textured_whitted_scene_matches_across_partitions() {
        // The checkerboard texture must evaluate identically in the
        // wavefront shader and the recursive tracer.
        assert_equivalent(scenes::whitted_scene(), 3);
    }

    #[test]
    fn reduction_prefers_closer_hit_and_lower_index() {
        let hit = |t: f64| Hit {
            t,
            point: Vec3::ZERO,
            normal: Vec3::new(0.0, 1.0, 0.0),
        };
        let task = RayTask {
            id: 0,
            ray: Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0)),
            kind: TaskKind::Radiance {
                pixel: 0,
                weight: Color::WHITE,
                depth: 0,
            },
        };
        let mut answers = RoundAnswers::sized_for(&[task]);
        answers.merge_radiance(
            0,
            RadianceAnswer {
                object: 5,
                hit: hit(2.0),
            },
        );
        answers.merge_radiance(
            0,
            RadianceAnswer {
                object: 9,
                hit: hit(1.0),
            },
        );
        assert_eq!(answers.radiance[0].unwrap().object, 9);
        // Tie on t: lower object index wins.
        answers.merge_radiance(
            0,
            RadianceAnswer {
                object: 3,
                hit: hit(1.0),
            },
        );
        assert_eq!(answers.radiance[0].unwrap().object, 3);
        answers.merge_radiance(
            0,
            RadianceAnswer {
                object: 7,
                hit: hit(1.0),
            },
        );
        assert_eq!(answers.radiance[0].unwrap().object, 3);
    }
}
