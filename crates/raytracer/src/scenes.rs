//! The paper's test scenes.
//!
//! * [`moderate_scene`] — "a scene of moderate complexity (the scene
//!   contained 25 primitive objects)": the workload of Figures 7–10.
//! * [`fractal_pyramid`] — "a more complex scene comprising more than 250
//!   primitives (a fractal pyramid)": the workload that reaches >99 %
//!   servant utilization.
//! * [`quickstart_scene`] — a tiny scene for examples and fast tests.

use crate::camera::Camera;
use crate::color::Color;
use crate::geometry::{Plane, Sphere, Triangle};
use crate::material::{Light, Material};
use crate::math::Vec3;
use crate::scene::Scene;

/// A small three-sphere scene for examples (4 primitives).
pub fn quickstart_scene() -> (Scene, Camera) {
    let mut scene = Scene::new(Color::new(0.25, 0.35, 0.55));
    scene.add(
        Plane::new(Vec3::new(0.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)),
        Material::shiny(Color::grey(0.6), 0.25),
    );
    scene.add(
        Sphere::new(Vec3::new(-2.0, 0.0, -6.0), 1.0),
        Material::matte(Color::new(0.9, 0.2, 0.2)),
    );
    scene.add(
        Sphere::new(Vec3::new(0.0, 0.0, -7.5), 1.0),
        Material::mirror(),
    );
    scene.add(
        Sphere::new(Vec3::new(2.0, 0.0, -6.0), 1.0),
        Material::glass(1.5),
    );
    scene.add_light(Light {
        position: Vec3::new(5.0, 8.0, 0.0),
        color: Color::WHITE,
    });
    let camera = Camera::look_at(
        Vec3::new(0.0, 1.0, 2.0),
        Vec3::new(0.0, 0.0, -6.0),
        Vec3::new(0.0, 1.0, 0.0),
        55.0,
        1.0,
    );
    (scene, camera)
}

/// The 25-primitive moderate scene: a reflective floor, a ring of shiny
/// and glass spheres, and a small triangle-fan "tent".
pub fn moderate_scene() -> (Scene, Camera) {
    let mut scene = Scene::new(Color::new(0.2, 0.3, 0.5));
    scene.set_ambient(Color::grey(0.8));

    // 1 floor plane.
    scene.add(
        Plane::new(Vec3::new(0.0, -1.5, 0.0), Vec3::new(0.0, 1.0, 0.0)),
        Material::shiny(Color::grey(0.55), 0.3),
    );

    // 12 spheres in a ring, alternating materials.
    for i in 0..12u32 {
        let angle = i as f64 / 12.0 * std::f64::consts::TAU;
        let pos = Vec3::new(4.0 * angle.cos(), -0.5, -10.0 + 4.0 * angle.sin());
        let material = match i % 3 {
            0 => Material::matte(Color::new(0.85, 0.25, 0.2)),
            1 => Material::shiny(Color::new(0.2, 0.5, 0.85), 0.4),
            _ => Material::glass(1.5),
        };
        scene.add(Sphere::new(pos, 0.9), material);
    }

    // 12 triangles forming a tent/pyramid fan in the middle.
    let apex = Vec3::new(0.0, 2.5, -10.0);
    for i in 0..12u32 {
        let a0 = i as f64 / 12.0 * std::f64::consts::TAU;
        let a1 = (i + 1) as f64 / 12.0 * std::f64::consts::TAU;
        let b0 = Vec3::new(2.0 * a0.cos(), -1.0, -10.0 + 2.0 * a0.sin());
        let b1 = Vec3::new(2.0 * a1.cos(), -1.0, -10.0 + 2.0 * a1.sin());
        scene.add(
            Triangle::new(apex, b0, b1),
            Material::shiny(Color::new(0.9, 0.75, 0.3), 0.2),
        );
    }

    scene.add_light(Light {
        position: Vec3::new(8.0, 10.0, 2.0),
        color: Color::grey(0.9),
    });
    scene.add_light(Light {
        position: Vec3::new(-7.0, 6.0, -2.0),
        color: Color::grey(0.5),
    });

    let camera = Camera::look_at(
        Vec3::new(0.0, 2.0, 2.0),
        Vec3::new(0.0, 0.0, -10.0),
        Vec3::new(0.0, 1.0, 0.0),
        60.0,
        1.0,
    );
    (scene, camera)
}

/// An homage to Whitted's 1980 cover image: a glass sphere and a
/// reflective sphere floating over a checkerboard floor (6 primitives).
pub fn whitted_scene() -> (Scene, Camera) {
    let mut scene = Scene::new(Color::new(0.35, 0.45, 0.65));
    scene.set_ambient(Color::grey(0.9));
    scene.add(
        Plane::new(Vec3::new(0.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)),
        Material::checker(Color::new(0.9, 0.8, 0.3), Color::new(0.8, 0.15, 0.1), 1.5),
    );
    scene.add(
        Sphere::new(Vec3::new(-0.9, 0.6, -5.0), 1.0),
        Material::glass(1.5),
    );
    scene.add(
        Sphere::new(Vec3::new(1.1, 0.2, -6.5), 0.9),
        Material::mirror(),
    );
    // A few background spheres to give the reflections something to see.
    scene.add(
        Sphere::new(Vec3::new(-3.0, 0.0, -8.0), 0.8),
        Material::matte(Color::new(0.2, 0.6, 0.3)),
    );
    scene.add(
        Sphere::new(Vec3::new(3.2, -0.2, -8.5), 0.7),
        Material::shiny(Color::new(0.3, 0.3, 0.8), 0.3),
    );
    scene.add(
        Sphere::new(Vec3::new(0.3, -0.5, -3.4), 0.4),
        Material::matte(Color::new(0.9, 0.6, 0.2)),
    );
    scene.add_light(Light {
        position: Vec3::new(4.0, 6.0, 1.0),
        color: Color::grey(0.95),
    });
    scene.add_light(Light {
        position: Vec3::new(-5.0, 4.0, 0.5),
        color: Color::grey(0.4),
    });
    let camera = Camera::look_at(
        Vec3::new(0.0, 0.8, 1.5),
        Vec3::new(0.0, 0.0, -5.5),
        Vec3::new(0.0, 1.0, 0.0),
        52.0,
        1.0,
    );
    (scene, camera)
}

/// The deepest [`fractal_pyramid`] that is built: depth 6 already holds
/// 16 385 primitives, and each level quadruples the count.
pub const MAX_FRACTAL_DEPTH: u32 = 6;

/// The complex scene: a Sierpinski-style fractal pyramid of `4^depth`
/// tetrahedra (4 triangles each) above a reflective floor.
///
/// `fractal_pyramid(3)` yields 257 primitives — the paper's "more than
/// 250 primitives".
///
/// # Panics
///
/// Panics if `depth > MAX_FRACTAL_DEPTH` (primitive count would explode).
pub fn fractal_pyramid(depth: u32) -> (Scene, Camera) {
    assert!(
        depth <= MAX_FRACTAL_DEPTH,
        "fractal depth {depth} would generate too many primitives"
    );
    let mut scene = Scene::new(Color::new(0.15, 0.2, 0.35));
    scene.set_ambient(Color::grey(0.7));

    scene.add(
        Plane::new(Vec3::new(0.0, -2.2, 0.0), Vec3::new(0.0, 1.0, 0.0)),
        Material::shiny(Color::grey(0.5), 0.35),
    );

    // Regular tetrahedron vertices.
    let scale = 3.0;
    let center = Vec3::new(0.0, 0.2, -10.0);
    let verts = [
        center + Vec3::new(1.0, 1.0, 1.0) * scale * 0.578,
        center + Vec3::new(1.0, -1.0, -1.0) * scale * 0.578,
        center + Vec3::new(-1.0, 1.0, -1.0) * scale * 0.578,
        center + Vec3::new(-1.0, -1.0, 1.0) * scale * 0.578,
    ];
    let material = Material::shiny(Color::new(0.8, 0.6, 0.25), 0.25);
    emit_sierpinski(&mut scene, verts, depth, material);

    scene.add_light(Light {
        position: Vec3::new(8.0, 12.0, 0.0),
        color: Color::grey(0.95),
    });
    scene.add_light(Light {
        position: Vec3::new(-6.0, 8.0, -4.0),
        color: Color::grey(0.45),
    });

    let camera = Camera::look_at(
        Vec3::new(0.0, 2.5, 0.0),
        center,
        Vec3::new(0.0, 1.0, 0.0),
        55.0,
        1.0,
    );
    (scene, camera)
}

fn emit_sierpinski(scene: &mut Scene, v: [Vec3; 4], depth: u32, material: Material) {
    if depth == 0 {
        scene.add(Triangle::new(v[0], v[1], v[2]), material);
        scene.add(Triangle::new(v[0], v[1], v[3]), material);
        scene.add(Triangle::new(v[0], v[2], v[3]), material);
        scene.add(Triangle::new(v[1], v[2], v[3]), material);
        return;
    }
    let mid = |a: Vec3, b: Vec3| (a + b) * 0.5;
    for corner in 0..4 {
        let mut sub = [Vec3::ZERO; 4];
        for (j, slot) in sub.iter_mut().enumerate() {
            *slot = if j == corner {
                v[corner]
            } else {
                mid(v[corner], v[j])
            };
        }
        emit_sierpinski(scene, sub, depth - 1, material);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceConfig, Tracer};
    use crate::work::WorkCounters;

    #[test]
    fn moderate_scene_has_exactly_25_primitives() {
        let (scene, _) = moderate_scene();
        assert_eq!(
            scene.primitive_count(),
            25,
            "the paper's moderate scene has 25 primitives"
        );
        assert_eq!(scene.lights().len(), 2);
    }

    #[test]
    fn fractal_pyramid_exceeds_250_primitives() {
        let (scene, _) = fractal_pyramid(3);
        // 4^3 tetrahedra x 4 faces + floor = 257.
        assert_eq!(scene.primitive_count(), 257);
        assert!(
            scene.primitive_count() > 250,
            "the paper's complex scene has >250 primitives"
        );
    }

    #[test]
    fn fractal_depth_scaling() {
        assert_eq!(fractal_pyramid(0).0.primitive_count(), 5);
        assert_eq!(fractal_pyramid(1).0.primitive_count(), 17);
        assert_eq!(fractal_pyramid(2).0.primitive_count(), 65);
    }

    #[test]
    fn whitted_scene_shows_the_checkerboard() {
        let (scene, camera) = whitted_scene();
        assert_eq!(scene.primitive_count(), 6);
        let tracer = Tracer::new(&scene, TraceConfig::default());
        // Two floor probes a square apart must differ (the checker).
        let (a, _) = tracer.render_pixel(&camera, 10, 30, 32, 32, 1);
        let (b, _) = tracer.render_pixel(&camera, 14, 30, 32, 32, 1);
        assert_ne!(
            a.to_rgb8(),
            b.to_rgb8(),
            "floor probes {a:?} vs {b:?} look identical"
        );
    }

    #[test]
    fn scenes_render_nontrivially() {
        for (scene, camera) in [quickstart_scene(), moderate_scene(), fractal_pyramid(2)] {
            let tracer = Tracer::new(&scene, TraceConfig::default());
            let mut hits = 0;
            let mut lum = 0.0;
            for (px, py) in [(8, 8), (16, 20), (24, 12), (16, 28)] {
                let (c, w) = tracer.render_pixel(&camera, px, py, 32, 32, 1);
                lum += c.luminance();
                if w.shadings > 0 {
                    hits += 1;
                }
            }
            assert!(hits >= 2, "camera should see the scene ({hits} probe hits)");
            assert!(lum > 0.05, "render too dark");
        }
    }

    #[test]
    fn complex_scene_rays_cost_more_than_moderate() {
        let (m_scene, m_cam) = moderate_scene();
        let (f_scene, f_cam) = fractal_pyramid(3);
        let mt = Tracer::new(&m_scene, TraceConfig::default());
        let ft = Tracer::new(&f_scene, TraceConfig::default());
        let mut m_work = WorkCounters::new();
        let mut f_work = WorkCounters::new();
        for py in 0..16 {
            for px in 0..16 {
                m_work += mt.render_pixel(&m_cam, px, py, 16, 16, 1).1;
                f_work += ft.render_pixel(&f_cam, px, py, 16, 16, 1).1;
            }
        }
        assert!(
            f_work.scalar_tests > m_work.scalar_tests * 4,
            "complex scene should do much more intersection work ({} vs {})",
            f_work.scalar_tests,
            m_work.scalar_tests
        );
    }
}
