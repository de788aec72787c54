//! Whitted-style recursive ray tracing.
//!
//! The colour of an eye ray combines the object's own (lit) colour, the
//! colour of a recursively traced reflected ray and the colour of a
//! recursively traced transmitted ray (paper §4.1, after Whitted \[15\]).

use crate::camera::Camera;
use crate::color::Color;
use crate::geometry::Hit;
use crate::intersect::{Accel, SceneIndex, VectorMode};
use crate::material::Material;
use crate::math::Ray;
use crate::sampling::oversample_offsets;
use crate::scene::Scene;
use crate::work::WorkCounters;

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceConfig {
    /// Maximum recursion depth for reflection/refraction.
    pub max_depth: u32,
    /// Acceleration structure.
    pub accel: Accel,
    /// Scalar or vectorized intersection tests.
    pub vector_mode: VectorMode,
    /// Whether to cast shadow rays.
    pub shadows: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            max_depth: 5,
            accel: Accel::BruteForce,
            vector_mode: VectorMode::Scalar,
            shadows: true,
        }
    }
}

/// A ray tracer bound to a scene.
///
/// # Examples
///
/// ```
/// use raytracer::scenes;
/// use raytracer::tracer::{TraceConfig, Tracer};
///
/// let (scene, camera) = scenes::quickstart_scene();
/// let tracer = Tracer::new(&scene, TraceConfig::default());
/// let (color, work) = tracer.render_pixel(&camera, 32, 32, 64, 64, 1);
/// assert!(work.rays >= 1);
/// assert!(color.luminance() >= 0.0);
/// ```
#[derive(Debug)]
pub struct Tracer<'a> {
    index: SceneIndex<'a>,
    cfg: TraceConfig,
}

impl<'a> Tracer<'a> {
    /// Prepares a tracer (builds the acceleration structure if any).
    pub fn new(scene: &'a Scene, cfg: TraceConfig) -> Self {
        Tracer {
            index: SceneIndex::build(scene, cfg.accel, cfg.vector_mode),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// The scene being rendered.
    pub fn scene(&self) -> &Scene {
        self.index.scene()
    }

    /// Traces one ray to its colour, accumulating work counters.
    pub fn trace(&self, ray: &Ray, work: &mut WorkCounters) -> Color {
        self.trace_depth(ray, 0, work)
    }

    fn trace_depth(&self, ray: &Ray, depth: u32, work: &mut WorkCounters) -> Color {
        work.rays += 1;
        let Some((obj_idx, hit)) = self.index.closest_hit(ray, work) else {
            return self.scene().background();
        };
        let material = self.scene().objects()[obj_idx].material;
        let mut color = self.shade_local(ray, &hit, &material, work);

        if depth < self.cfg.max_depth {
            if material.reflectivity > 0.0 {
                work.reflections += 1;
                let reflected = Ray::new(hit.point, ray.dir.reflect(hit.normal));
                color += self.trace_depth(&reflected, depth + 1, work) * material.reflectivity;
            }
            if material.transparency > 0.0 {
                // The reported normal faces the incoming ray, so entering
                // vs. leaving is distinguished by the original geometric
                // orientation; eta uses the material's IOR either way
                // (sufficient for thin shells and solid glass alike).
                let eta = 1.0 / material.ior;
                match ray.dir.refract(hit.normal, eta) {
                    Some(transmitted) => {
                        work.refractions += 1;
                        let t_ray = Ray::new(hit.point, transmitted);
                        color += self.trace_depth(&t_ray, depth + 1, work) * material.transparency;
                    }
                    None => {
                        // Total internal reflection feeds the mirror term.
                        work.reflections += 1;
                        let reflected = Ray::new(hit.point, ray.dir.reflect(hit.normal));
                        color +=
                            self.trace_depth(&reflected, depth + 1, work) * material.transparency;
                    }
                }
            }
        }
        color
    }

    /// Ambient + Phong diffuse/specular with shadow tests.
    fn shade_local(
        &self,
        ray: &Ray,
        hit: &Hit,
        material: &Material,
        work: &mut WorkCounters,
    ) -> Color {
        work.shadings += 1;
        let surface = material.color_at(hit.point);
        let mut color = self.scene().ambient().modulate(surface) * material.ambient;
        for light in self.scene().lights() {
            let to_light = light.position - hit.point;
            let distance = to_light.length();
            let l_dir = to_light / distance;
            if self.cfg.shadows {
                let shadow_ray = Ray {
                    origin: hit.point,
                    dir: l_dir,
                };
                work.rays += 1;
                if self.index.occluded(&shadow_ray, distance, work) {
                    continue;
                }
            }
            let n_dot_l = hit.normal.dot(l_dir).max(0.0);
            if n_dot_l > 0.0 {
                color += light.color.modulate(surface) * (material.diffuse * n_dot_l);
                if material.specular > 0.0 {
                    let h = (l_dir - ray.dir).normalized();
                    let spec = hit.normal.dot(h).max(0.0).powf(material.shininess);
                    color += light.color * (material.specular * spec);
                }
            }
        }
        color
    }

    /// Renders one pixel with `oversample`×`oversample` stratified
    /// sub-pixel rays (the master's oversampling scheme, paper §4.2) and
    /// returns the averaged colour plus the work done.
    ///
    /// # Panics
    ///
    /// Panics if `oversample` is zero.
    pub fn render_pixel(
        &self,
        camera: &Camera,
        px: u32,
        py: u32,
        width: u32,
        height: u32,
        oversample: u32,
    ) -> (Color, WorkCounters) {
        let offsets = oversample_offsets(oversample);
        let mut work = WorkCounters::new();
        let mut acc = Color::BLACK;
        for &offset in &offsets {
            let ray = camera.ray_for(px, py, width, height, offset);
            acc += self.trace(&ray, &mut work);
        }
        (acc * (1.0 / offsets.len() as f64), work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Plane, Sphere};
    use crate::material::Light;
    use crate::math::Vec3;
    use crate::scene::Scene;

    fn lit_sphere_scene() -> Scene {
        let mut s = Scene::new(Color::grey(0.1));
        s.add(
            Sphere::new(Vec3::new(0.0, 0.0, -5.0), 1.0),
            Material::matte(Color::WHITE),
        );
        s.add_light(Light {
            position: Vec3::new(0.0, 5.0, 0.0),
            color: Color::WHITE,
        });
        s
    }

    #[test]
    fn miss_returns_background() {
        let s = lit_sphere_scene();
        let t = Tracer::new(&s, TraceConfig::default());
        let mut w = WorkCounters::new();
        let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(t.trace(&ray, &mut w), Color::grey(0.1));
        assert_eq!(w.shadings, 0);
        assert_eq!(w.rays, 1);
    }

    #[test]
    fn lit_side_brighter_than_ambient() {
        let s = lit_sphere_scene();
        let t = Tracer::new(&s, TraceConfig::default());
        let mut w = WorkCounters::new();
        // Hit the top of the sphere (facing the light).
        let ray = Ray::new(Vec3::new(0.0, 3.0, -5.0), Vec3::new(0.0, -1.0, 0.0));
        let c = t.trace(&ray, &mut w);
        assert!(c.luminance() > 0.3, "lit surface too dark: {c:?}");
        assert_eq!(w.shadings, 1);
    }

    #[test]
    fn shadowed_point_gets_only_ambient() {
        let mut s = Scene::new(Color::BLACK);
        s.add(
            Plane::new(Vec3::new(0.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)),
            Material::matte(Color::WHITE),
        );
        // Blocker between light and the shading point.
        s.add(
            Sphere::new(Vec3::new(0.0, 2.0, -5.0), 1.0),
            Material::matte(Color::WHITE),
        );
        s.add_light(Light {
            position: Vec3::new(0.0, 6.0, -5.0),
            color: Color::WHITE,
        });
        let t = Tracer::new(&s, TraceConfig::default());
        let mut w = WorkCounters::new();
        // Straight down at the point right below the blocker.
        let ray = Ray::new(Vec3::new(0.0, 0.5, -5.0), Vec3::new(0.0, -1.0, 0.0));
        let shadowed = t.trace(&ray, &mut w);
        // Same geometry but shadows disabled: much brighter.
        let t2 = Tracer::new(
            &s,
            TraceConfig {
                shadows: false,
                ..TraceConfig::default()
            },
        );
        let unshadowed = t2.trace(&ray, &mut WorkCounters::new());
        assert!(shadowed.luminance() < unshadowed.luminance() * 0.5);
        assert!(w.shadow_queries >= 1);
    }

    #[test]
    fn mirror_reflects_scene() {
        let mut s = Scene::new(Color::new(0.0, 0.0, 1.0)); // blue background
        s.add(
            Plane::new(Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0)),
            Material::mirror(),
        );
        let t = Tracer::new(&s, TraceConfig::default());
        let mut w = WorkCounters::new();
        let ray = Ray::new(Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.2, -1.0, 0.0));
        let c = t.trace(&ray, &mut w);
        assert!(c.b > 0.5, "mirror floor should reflect the blue sky: {c:?}");
        assert_eq!(w.reflections, 1);
    }

    #[test]
    fn recursion_depth_is_bounded() {
        // Two facing mirrors: an infinite bounce corridor.
        let mut s = Scene::new(Color::BLACK);
        s.add(
            Plane::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0)),
            Material::mirror(),
        );
        s.add(
            Plane::new(Vec3::new(0.0, 0.0, 5.0), Vec3::new(0.0, 0.0, -1.0)),
            Material::mirror(),
        );
        let t = Tracer::new(
            &s,
            TraceConfig {
                max_depth: 7,
                ..TraceConfig::default()
            },
        );
        let mut w = WorkCounters::new();
        t.trace(&Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0)), &mut w);
        assert_eq!(w.reflections, 7);
    }

    #[test]
    fn glass_spawns_refraction() {
        let mut s = lit_sphere_scene();
        s.add(
            Sphere::new(Vec3::new(0.0, 0.0, -2.0), 0.5),
            Material::glass(1.5),
        );
        let t = Tracer::new(&s, TraceConfig::default());
        let mut w = WorkCounters::new();
        t.trace(&Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0)), &mut w);
        assert!(w.refractions >= 1);
    }

    #[test]
    fn oversampling_multiplies_work() {
        let (scene, camera) = crate::scenes::quickstart_scene();
        let t = Tracer::new(&scene, TraceConfig::default());
        let (_, w1) = t.render_pixel(&camera, 32, 32, 64, 64, 1);
        let (_, w3) = t.render_pixel(&camera, 32, 32, 64, 64, 3);
        assert!(
            w3.rays >= w1.rays * 9,
            "3x3 oversampling should cast 9x the rays"
        );
    }
}
