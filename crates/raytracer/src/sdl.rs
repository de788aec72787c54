//! The scene description language.
//!
//! The paper's servants spend their initialization "reading the scene
//! description file" — the replicated description whose size motivates
//! the object-partitioning debate of §4.1. This module defines that
//! file format: a line-oriented text language covering everything a
//! [`Scene`] and [`Camera`] hold, with an exact
//! parse ∘ serialize round trip.
//!
//! ```text
//! # comment
//! background 0.2 0.3 0.5
//! ambient 0.8 0.8 0.8
//! camera eye 0 2 2 target 0 0 -10 up 0 1 0 fov 60 aspect 1
//! light pos 8 10 2 color 0.9 0.9 0.9
//! material m0 color 0.85 0.25 0.2 ambient 0.1 diffuse 0.9 \
//!          specular 0 shininess 1 reflect 0 transparency 0 ior 1
//! sphere center 0 0 -5 radius 1 material m0
//! plane point 0 -1.5 0 normal 0 1 0 material m0
//! triangle a 0 2.5 -10 b 1 0 -9 c -1 0 -9 material m0
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use crate::camera::Camera;
use crate::color::Color;
use crate::geometry::{Plane, Primitive, Sphere, Triangle};
use crate::material::{Light, Material};
use crate::math::Vec3;
use crate::scene::Scene;

/// A parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSceneError {
    line: usize,
    message: String,
}

impl ParseSceneError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseSceneError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based line the error occurred on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseSceneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scene description line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSceneError {}

/// A parsed scene description: everything needed to render.
#[derive(Debug, Clone)]
pub struct SceneDescription {
    /// The scene.
    pub scene: Scene,
    /// The camera.
    pub camera: Camera,
}

struct LineParser<'a> {
    words: std::str::SplitWhitespace<'a>,
    line: usize,
}

impl<'a> LineParser<'a> {
    fn word(&mut self) -> Result<&'a str, ParseSceneError> {
        self.words
            .next()
            .ok_or_else(|| ParseSceneError::new(self.line, "unexpected end of line"))
    }

    fn keyword(&mut self, expected: &str) -> Result<(), ParseSceneError> {
        let w = self.word()?;
        if w == expected {
            Ok(())
        } else {
            Err(ParseSceneError::new(
                self.line,
                format!("expected '{expected}', found '{w}'"),
            ))
        }
    }

    fn number(&mut self) -> Result<f64, ParseSceneError> {
        let w = self.word()?;
        match w.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => Err(ParseSceneError::new(
                self.line,
                format!("'{w}' is not a finite number"),
            )),
            Err(_) => Err(ParseSceneError::new(
                self.line,
                format!("'{w}' is not a number"),
            )),
        }
    }

    fn vec3(&mut self) -> Result<Vec3, ParseSceneError> {
        Ok(Vec3::new(self.number()?, self.number()?, self.number()?))
    }

    fn color(&mut self) -> Result<Color, ParseSceneError> {
        Ok(Color::new(self.number()?, self.number()?, self.number()?))
    }

    fn finished(&mut self) -> Result<(), ParseSceneError> {
        match self.words.next() {
            None => Ok(()),
            Some(extra) => Err(ParseSceneError::new(
                self.line,
                format!("unexpected trailing '{extra}'"),
            )),
        }
    }
}

/// Parses a scene description.
///
/// # Errors
///
/// Returns a [`ParseSceneError`] naming the offending line for any
/// syntax problem, non-finite number, unknown directive, undefined
/// material reference, degenerate camera (eye at the target, `up` zero
/// or parallel to the view direction, or a view or image plane that
/// overflows `f64`), or missing camera.
///
/// # Examples
///
/// ```
/// use raytracer::sdl;
///
/// let text = "\
/// background 0 0 0
/// camera eye 0 0 5 target 0 0 0 up 0 1 0 fov 60 aspect 1
/// material m color 1 1 1 ambient 0.1 diffuse 0.9 specular 0 shininess 1 reflect 0 transparency 0 ior 1
/// sphere center 0 0 0 radius 1 material m
/// light pos 5 5 5 color 1 1 1
/// ";
/// let desc = sdl::parse(text)?;
/// assert_eq!(desc.scene.primitive_count(), 1);
/// # Ok::<(), raytracer::sdl::ParseSceneError>(())
/// ```
pub fn parse(text: &str) -> Result<SceneDescription, ParseSceneError> {
    let mut scene = Scene::new(Color::BLACK);
    let mut camera = None;
    let mut materials: HashMap<String, Material> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut p = LineParser {
            words: line.split_whitespace(),
            line: line_no,
        };
        let directive = p.word()?;
        match directive {
            "background" => {
                let c = p.color()?;
                // Scene::new fixes the background; rebuild preserving
                // content added so far (background should come first, but
                // order independence is friendlier).
                let mut rebuilt = Scene::new(c);
                rebuilt.set_ambient(scene.ambient());
                for obj in scene.objects() {
                    rebuilt.add(obj.primitive, obj.material);
                }
                for light in scene.lights() {
                    rebuilt.add_light(*light);
                }
                scene = rebuilt;
            }
            "ambient" => {
                let c = p.color()?;
                scene.set_ambient(c);
            }
            "camera" => {
                p.keyword("eye")?;
                let eye = p.vec3()?;
                p.keyword("target")?;
                let target = p.vec3()?;
                p.keyword("up")?;
                let up = p.vec3()?;
                p.keyword("fov")?;
                let fov = p.number()?;
                p.keyword("aspect")?;
                let aspect = p.number()?;
                if !(0.0..180.0).contains(&fov) || fov == 0.0 {
                    return Err(ParseSceneError::new(line_no, "fov must be in (0, 180)"));
                }
                if aspect <= 0.0 {
                    return Err(ParseSceneError::new(line_no, "aspect must be positive"));
                }
                camera = Some(
                    Camera::try_look_at(eye, target, up, fov, aspect)
                        .map_err(|e| ParseSceneError::new(line_no, e))?,
                );
            }
            "light" => {
                p.keyword("pos")?;
                let pos = p.vec3()?;
                p.keyword("color")?;
                let c = p.color()?;
                scene.add_light(Light {
                    position: pos,
                    color: c,
                });
            }
            "material" => {
                let name = p.word()?.to_owned();
                p.keyword("color")?;
                let color = p.color()?;
                p.keyword("ambient")?;
                let ambient = p.number()?;
                p.keyword("diffuse")?;
                let diffuse = p.number()?;
                p.keyword("specular")?;
                let specular = p.number()?;
                p.keyword("shininess")?;
                let shininess = p.number()?;
                p.keyword("reflect")?;
                let reflectivity = p.number()?;
                p.keyword("transparency")?;
                let transparency = p.number()?;
                p.keyword("ior")?;
                let ior = p.number()?;
                // Optional procedural texture suffix:
                //   checker <r g b> <r g b> <scale>
                let texture = match p.words.clone().next() {
                    Some("checker") => {
                        p.keyword("checker")?;
                        let a = p.color()?;
                        let b = p.color()?;
                        let scale = p.number()?;
                        if scale <= 0.0 {
                            return Err(ParseSceneError::new(
                                line_no,
                                "checker scale must be positive",
                            ));
                        }
                        Some(crate::material::CheckerTexture { a, b, scale })
                    }
                    _ => None,
                };
                materials.insert(
                    name,
                    Material {
                        color,
                        texture,
                        ambient,
                        diffuse,
                        specular,
                        shininess,
                        reflectivity,
                        transparency,
                        ior,
                    },
                );
            }
            "sphere" => {
                p.keyword("center")?;
                let center = p.vec3()?;
                p.keyword("radius")?;
                let radius = p.number()?;
                if radius <= 0.0 {
                    return Err(ParseSceneError::new(line_no, "radius must be positive"));
                }
                let material = material_ref(&mut p, &materials)?;
                scene.add(Sphere::new(center, radius), material);
            }
            "plane" => {
                p.keyword("point")?;
                let point = p.vec3()?;
                p.keyword("normal")?;
                let normal = p.vec3()?;
                if normal.length() < 1e-9 {
                    return Err(ParseSceneError::new(line_no, "normal must be nonzero"));
                }
                let material = material_ref(&mut p, &materials)?;
                scene.add(Plane::new(point, normal), material);
            }
            "triangle" => {
                p.keyword("a")?;
                let a = p.vec3()?;
                p.keyword("b")?;
                let b = p.vec3()?;
                p.keyword("c")?;
                let c = p.vec3()?;
                let area2 = (b - a).cross(c - a).length();
                if area2 <= 1e-12 {
                    return Err(ParseSceneError::new(line_no, "triangle is degenerate"));
                }
                let material = material_ref(&mut p, &materials)?;
                scene.add(Triangle::new(a, b, c), material);
            }
            other => {
                return Err(ParseSceneError::new(
                    line_no,
                    format!("unknown directive '{other}'"),
                ));
            }
        }
        p.finished()?;
    }

    let camera =
        camera.ok_or_else(|| ParseSceneError::new(text.lines().count(), "missing camera"))?;
    Ok(SceneDescription { scene, camera })
}

fn material_ref(
    p: &mut LineParser<'_>,
    materials: &HashMap<String, Material>,
) -> Result<Material, ParseSceneError> {
    p.keyword("material")?;
    let line = p.line;
    let name = p.word()?;
    materials
        .get(name)
        .copied()
        .ok_or_else(|| ParseSceneError::new(line, format!("undefined material '{name}'")))
}

/// Serializes a scene and camera parameters into the description
/// language. Materials are deduplicated and named `m0, m1, …`.
///
/// `camera_line` must be the parameters the camera was built with — the
/// [`Camera`] itself stores only derived vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraSpec {
    /// Eye position.
    pub eye: Vec3,
    /// Look-at target.
    pub target: Vec3,
    /// Up vector.
    pub up: Vec3,
    /// Vertical field of view in degrees.
    pub fov_deg: f64,
    /// Aspect ratio.
    pub aspect: f64,
}

impl CameraSpec {
    /// Builds the camera these parameters describe.
    pub fn build(&self) -> Camera {
        Camera::look_at(self.eye, self.target, self.up, self.fov_deg, self.aspect)
    }
}

/// Serializes `scene` plus `camera` into the description language.
pub fn serialize(scene: &Scene, camera: &CameraSpec) -> String {
    let mut out = String::new();
    let bg = scene.background();
    let am = scene.ambient();
    let _ = writeln!(
        out,
        "# scene description ({} primitives)",
        scene.primitive_count()
    );
    let _ = writeln!(out, "background {} {} {}", bg.r, bg.g, bg.b);
    let _ = writeln!(out, "ambient {} {} {}", am.r, am.g, am.b);
    let _ = writeln!(
        out,
        "camera eye {} {} {} target {} {} {} up {} {} {} fov {} aspect {}",
        camera.eye.x,
        camera.eye.y,
        camera.eye.z,
        camera.target.x,
        camera.target.y,
        camera.target.z,
        camera.up.x,
        camera.up.y,
        camera.up.z,
        camera.fov_deg,
        camera.aspect
    );
    for light in scene.lights() {
        let _ = writeln!(
            out,
            "light pos {} {} {} color {} {} {}",
            light.position.x,
            light.position.y,
            light.position.z,
            light.color.r,
            light.color.g,
            light.color.b
        );
    }

    // Deduplicate materials by bit pattern.
    let mut names: Vec<(Material, String)> = Vec::new();
    let mut name_of = |m: Material, out: &mut String| -> String {
        if let Some((_, n)) = names.iter().find(|(existing, _)| material_eq(existing, &m)) {
            return n.clone();
        }
        let n = format!("m{}", names.len());
        let mut line = format!(
            "material {n} color {} {} {} ambient {} diffuse {} specular {} shininess {} \
             reflect {} transparency {} ior {}",
            m.color.r,
            m.color.g,
            m.color.b,
            m.ambient,
            m.diffuse,
            m.specular,
            m.shininess,
            m.reflectivity,
            m.transparency,
            m.ior
        );
        if let Some(t) = &m.texture {
            let _ = write!(
                line,
                " checker {} {} {} {} {} {} {}",
                t.a.r, t.a.g, t.a.b, t.b.r, t.b.g, t.b.b, t.scale
            );
        }
        let _ = writeln!(out, "{line}");
        names.push((m, n.clone()));
        n
    };

    for obj in scene.objects() {
        let name = name_of(obj.material, &mut out);
        match obj.primitive {
            Primitive::Sphere(s) => {
                let c = s.center();
                let _ = writeln!(
                    out,
                    "sphere center {} {} {} radius {} material {name}",
                    c.x,
                    c.y,
                    c.z,
                    s.radius()
                );
            }
            Primitive::Plane(pl) => {
                let p = pl.point();
                let n = pl.normal();
                let _ = writeln!(
                    out,
                    "plane point {} {} {} normal {} {} {} material {name}",
                    p.x, p.y, p.z, n.x, n.y, n.z
                );
            }
            Primitive::Triangle(t) => {
                let (a, b, c) = t.vertices();
                let _ = writeln!(
                    out,
                    "triangle a {} {} {} b {} {} {} c {} {} {} material {name}",
                    a.x, a.y, a.z, b.x, b.y, b.z, c.x, c.y, c.z
                );
            }
        }
    }
    out
}

fn material_eq(a: &Material, b: &Material) -> bool {
    a.texture == b.texture
        && a.color == b.color
        && a.ambient == b.ambient
        && a.diffuse == b.diffuse
        && a.specular == b.specular
        && a.shininess == b.shininess
        && a.reflectivity == b.reflectivity
        && a.transparency == b.transparency
        && a.ior == b.ior
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceConfig, Tracer};

    fn quickstart_spec() -> CameraSpec {
        CameraSpec {
            eye: Vec3::new(0.0, 1.0, 2.0),
            target: Vec3::new(0.0, 0.0, -6.0),
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_deg: 55.0,
            aspect: 1.0,
        }
    }

    #[test]
    fn roundtrip_preserves_rendering() {
        let (scene, _camera) = crate::scenes::quickstart_scene();
        let spec = quickstart_spec();
        let text = serialize(&scene, &spec);
        let parsed = parse(&text).expect("serialized description parses");
        assert_eq!(parsed.scene.primitive_count(), scene.primitive_count());
        assert_eq!(parsed.scene.lights().len(), scene.lights().len());

        // Render both and compare pixels.
        let t1 = Tracer::new(&scene, TraceConfig::default());
        let t2 = Tracer::new(&parsed.scene, TraceConfig::default());
        let cam1 = spec.build();
        let cam2 = parsed.camera;
        for (px, py) in [(0u32, 0u32), (5, 9), (8, 8), (15, 3)] {
            let (a, _) = t1.render_pixel(&cam1, px, py, 16, 16, 1);
            let (b, _) = t2.render_pixel(&cam2, px, py, 16, 16, 1);
            assert_eq!(
                a.to_rgb8(),
                b.to_rgb8(),
                "pixel ({px},{py}) changed in round trip"
            );
        }
    }

    #[test]
    fn moderate_scene_roundtrips() {
        let (scene, _) = crate::scenes::moderate_scene();
        let spec = CameraSpec {
            eye: Vec3::new(0.0, 2.0, 2.0),
            target: Vec3::new(0.0, 0.0, -10.0),
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_deg: 60.0,
            aspect: 1.0,
        };
        let text = serialize(&scene, &spec);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.scene.primitive_count(), 25);
        // Material dedup: the description should define far fewer
        // materials than primitives.
        let material_lines = text.lines().filter(|l| l.starts_with("material")).count();
        assert!(
            material_lines <= 6,
            "{material_lines} materials for 25 primitives"
        );
    }

    #[test]
    fn checker_texture_roundtrips() {
        let (scene, _) = crate::scenes::whitted_scene();
        let spec = CameraSpec {
            eye: Vec3::new(0.0, 0.8, 1.5),
            target: Vec3::new(0.0, 0.0, -5.5),
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_deg: 52.0,
            aspect: 1.0,
        };
        let text = serialize(&scene, &spec);
        assert!(text.contains("checker"), "{text}");
        let parsed = parse(&text).unwrap();
        let floor = parsed.scene.objects()[0].material;
        assert!(floor.texture.is_some(), "checker floor lost in round trip");
        // Probe two squares.
        let t = Tracer::new(&parsed.scene, TraceConfig::default());
        let cam = spec.build();
        let (a, _) = t.render_pixel(&cam, 10, 30, 32, 32, 1);
        let (b, _) = t.render_pixel(&cam, 14, 30, 32, 32, 1);
        assert_ne!(a.to_rgb8(), b.to_rgb8());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "background 0 0 0\nwobble 1 2 3\n";
        let err = parse(bad).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("wobble"));

        let err = parse(
            "sphere center 0 0 0 radius 1 material nope\n\
                         camera eye 0 0 0 target 0 0 -1 up 0 1 0 fov 60 aspect 1\n",
        )
        .unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("undefined material"));
    }

    #[test]
    fn rejects_bad_values() {
        let with_camera =
            |body: &str| format!("camera eye 0 0 0 target 0 0 -1 up 0 1 0 fov 60 aspect 1\n{body}");
        assert!(parse(&with_camera("material m color 1 1 1 ambient 0.1 diffuse 1 specular 0 shininess 1 reflect 0 transparency 0 ior 1\nsphere center 0 0 0 radius -1 material m")).is_err());
        assert!(parse(&with_camera("background 0 0")).is_err());
        assert!(parse(&with_camera("ambient a b c")).is_err());
        assert!(parse("camera eye 0 0 0 target 0 0 -1 up 0 1 0 fov 200 aspect 1").is_err());
        assert!(parse("sphere trailing").is_err());

        // Non-finite numbers and degenerate cameras are named errors on
        // their line, never a panic or a NaN scene.
        let cam = |eye: &str, up: &str, aspect: &str| {
            format!("camera eye {eye} target 1 2 -1 up {up} fov 60 aspect {aspect}")
        };
        let material = "material m color 1 1 1 ambient 0.1 diffuse 1 specular 0 shininess 1 \
                        reflect 0 transparency 0 ior 1";
        let scene = |shape: &str| with_camera(&format!("{material}\n{shape} material m"));
        for (text, line) in [
            (cam("1 2 3", "0 1 0", "NaN"), 1),
            (cam("NaN 2 3", "0 1 0", "1"), 1),
            (cam("1 2 3", "0 inf 0", "1"), 1),
            (scene("sphere center 0 0 0 radius NaN"), 3),
            (scene("triangle a 0 0 0 b NaN 0 0 c 0 1 0"), 3),
            (scene("plane point 0 0 0 normal 0 NaN 0"), 3),
        ] {
            let err = parse(&text).unwrap_err();
            assert_eq!(err.line(), line, "{err}");
            assert!(err.to_string().contains("is not a finite number"), "{err}");
        }
        let err = parse(&cam("1 2 -1", "0 1 0", "1")).unwrap_err();
        assert!(err
            .to_string()
            .contains("line 1: eye and target must differ"));
        let err = parse(&cam("1 2 3", "0 0 2", "1")).unwrap_err();
        assert!(err
            .to_string()
            .contains("line 1: up must be nonzero and not parallel"));
        // Finite literals whose view vector `target − eye` or image
        // plane overflows.
        for text in [
            "camera eye 1e308 1e308 1e308 target -1e308 0 0 up 0 1 0 fov 60 aspect 1",
            "camera eye 1e308 0 0 target 0 0 0 up 0 1 0 fov 60 aspect 1e308",
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.to_string()
                    .contains("line 1: camera view vector or basis is not finite"),
                "{text}: {err}"
            );
        }
        // A finite eye so far out that rounding swallows the image
        // plane: its rays would have no direction.
        let err =
            parse("camera eye 1e17 1e17 1e17 target 0 0 0 up 0 1 0 fov 60 aspect 1").unwrap_err();
        assert!(
            err.to_string()
                .contains("line 1: camera eye is too far from the origin"),
            "{err}"
        );
    }

    proptest::proptest! {
        /// A camera line over extreme numbers, then lines of grammar words:
        /// never a panic, and every accepted scene has a finite camera.
        #[test]
        fn grammar_shaped_lines_accept_only_finite_cameras(
            numbers in proptest::collection::vec(0usize..8, 11),
            words in proptest::collection::vec(0usize..32, 0..40),
        ) {
            const NUMBERS: [&str; 8] = ["0", "1", "-1", "60", "1e308", "-1e308", "1e-300", "1e154"];
            const WORDS: [&str; 32] = [
                "\n", "camera", "eye", "target", "up", "fov", "aspect", "background", "ambient",
                "light", "pos", "color", "material", "m", "diffuse", "specular", "shininess",
                "reflect", "transparency", "ior", "checker", "sphere", "center", "radius",
                "plane", "point", "normal", "triangle", "a", "NaN", "#", "0",
            ];
            let n: Vec<&str> = numbers.iter().map(|&i| NUMBERS[i]).collect();
            let camera = format!(
                "camera eye {} {} {} target {} {} {} up {} {} {} fov {} aspect {}\n",
                n[0], n[1], n[2], n[3], n[4], n[5], n[6], n[7], n[8], n[9], n[10]
            );
            let mut text = camera.clone();
            for &w in &words {
                text.push_str(WORDS[w]);
                text.push_str(if w % 3 == 0 { " 1e308 " } else { " " });
            }
            for text in [camera, text] {
                if let Ok(desc) = parse(&text) {
                    proptest::prop_assert!(desc.camera.is_finite(), "{text}");
                }
            }
        }
    }

    #[test]
    fn missing_camera_is_an_error() {
        let err = parse("background 0 0 0\n").unwrap_err();
        assert!(err.to_string().contains("missing camera"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# full line comment\ncamera eye 0 0 0 target 0 0 -1 up 0 1 0 fov 60 aspect 1 # trailing\n\n";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.scene.primitive_count(), 0);
    }

    #[test]
    fn description_length_scales_with_scene() {
        // The §4.1 premise: "scene descriptions are often very long".
        let spec = quickstart_spec();
        let small = serialize(&crate::scenes::quickstart_scene().0, &spec);
        let big = serialize(&crate::scenes::fractal_pyramid(3).0, &spec);
        assert!(
            big.len() > small.len() * 10,
            "{} vs {}",
            big.len(),
            small.len()
        );
    }
}
