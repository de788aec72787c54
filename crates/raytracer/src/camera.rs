//! Pinhole camera.

use crate::math::{Ray, Vec3};

/// Largest coordinate magnitude (eye plus image-plane extent) a view may
/// reach: 2^46.
const MAX_REACH: f64 = (1u64 << 46) as f64;

/// A pinhole camera generating eye rays through image-plane pixels —
/// Figure 4's "eye" and "screen".
///
/// # Examples
///
/// ```
/// use raytracer::camera::Camera;
/// use raytracer::math::Vec3;
///
/// let cam = Camera::look_at(
///     Vec3::new(0.0, 0.0, 5.0),
///     Vec3::ZERO,
///     Vec3::new(0.0, 1.0, 0.0),
///     60.0,
///     1.0,
/// );
/// let center = cam.ray_for(256, 256, 512, 512, (0.5, 0.5));
/// assert!(center.dir.z < -0.99, "center ray looks straight down -z");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    eye: Vec3,
    lower_left: Vec3,
    horizontal: Vec3,
    vertical: Vec3,
}

impl Camera {
    /// Builds a camera at `eye` looking at `target`.
    ///
    /// # Panics
    ///
    /// Panics if `fov_deg` is not in `(0, 180)` or `aspect` is not
    /// positive, or with the reason [`try_look_at`](Self::try_look_at)
    /// refuses the view.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3, fov_deg: f64, aspect: f64) -> Self {
        Camera::try_look_at(eye, target, up, fov_deg, aspect).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a camera at `eye` looking at `target`.
    ///
    /// # Errors
    ///
    /// Names why the view has no finite basis: `eye` at `target`, `up`
    /// zero or parallel to the view direction, or coordinates so large
    /// that `target − eye` or the image plane overflows `f64` — or so
    /// far from the origin (beyond 2^46) that rounding swallows the
    /// image plane and the eye rays would have no direction.
    ///
    /// # Panics
    ///
    /// Panics if `fov_deg` is not in `(0, 180)` or `aspect` is not
    /// positive.
    pub fn try_look_at(
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        fov_deg: f64,
        aspect: f64,
    ) -> Result<Self, &'static str> {
        const NOT_FINITE: &str = "camera view vector or basis is not finite";
        assert!(
            fov_deg > 0.0 && fov_deg < 180.0,
            "field of view must be in (0, 180)"
        );
        assert!(aspect > 0.0, "aspect ratio must be positive");
        let unit = |v: Vec3, degenerate: &'static str| match v.length() {
            len if !len.is_finite() => Err(NOT_FINITE),
            0.0 => Err(degenerate),
            len => Ok(v / len),
        };
        let theta = fov_deg.to_radians();
        let half_h = (theta / 2.0).tan();
        let half_w = aspect * half_h;
        let w = unit(eye - target, "eye and target must differ")?; // backwards
        let u = unit(
            up.cross(w),
            "up must be nonzero and not parallel to the view direction",
        )?;
        let v = w.cross(u);
        let camera = Camera {
            eye,
            lower_left: eye - u * half_w - v * half_h - w,
            horizontal: u * (2.0 * half_w),
            vertical: v * (2.0 * half_h),
        };
        if !camera.is_finite() {
            return Err(NOT_FINITE);
        }
        // `ray_for` aims at plane points one unit from the eye, through
        // the difference `plane point − eye`. Each of its coordinates
        // carries a few ulps of the largest coordinate in play, which far
        // from the origin swallows that unit: the direction would come
        // out zero or as noise. Below 2^46 the error stays under a tenth.
        let reach = eye.x.abs().max(eye.y.abs()).max(eye.z.abs()) + 1.0 + half_w + half_h;
        if reach > MAX_REACH {
            return Err("camera eye is too far from the origin: rounding swallows the image plane");
        }
        Ok(camera)
    }

    /// `true` when the eye and the image-plane basis are all finite.
    pub fn is_finite(&self) -> bool {
        [self.eye, self.lower_left, self.horizontal, self.vertical]
            .iter()
            .all(|v| v.x.is_finite() && v.y.is_finite() && v.z.is_finite())
    }

    /// The eye position.
    pub fn eye(&self) -> Vec3 {
        self.eye
    }

    /// The eye ray through pixel `(px, py)` of a `width`×`height` image.
    /// `offset` is the sub-pixel sample position in `[0, 1)²`
    /// (`(0.5, 0.5)` = pixel center); pixel `(0, 0)` is top-left.
    ///
    /// # Panics
    ///
    /// Panics if the pixel lies outside the image.
    pub fn ray_for(&self, px: u32, py: u32, width: u32, height: u32, offset: (f64, f64)) -> Ray {
        assert!(
            px < width && py < height,
            "pixel ({px},{py}) outside {width}x{height}"
        );
        let s = (px as f64 + offset.0) / width as f64;
        // Flip y so py=0 is the top row.
        let t = 1.0 - (py as f64 + offset.1) / height as f64;
        let target = self.lower_left + self.horizontal * s + self.vertical * t;
        Ray::new(self.eye, target - self.eye)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            90.0,
            1.0,
        )
    }

    #[test]
    fn corner_rays_diverge() {
        let c = cam();
        let tl = c.ray_for(0, 0, 100, 100, (0.0, 0.0));
        let br = c.ray_for(99, 99, 100, 100, (1.0, 1.0));
        assert!(tl.dir.x < 0.0 && tl.dir.y > 0.0);
        assert!(br.dir.x > 0.0 && br.dir.y < 0.0);
    }

    #[test]
    fn rays_originate_at_eye() {
        let c = cam();
        let r = c.ray_for(10, 20, 100, 100, (0.5, 0.5));
        assert_eq!(r.origin, Vec3::new(0.0, 0.0, 5.0));
        assert!((r.dir.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversampling_offsets_shift_rays() {
        let c = cam();
        let a = c.ray_for(50, 50, 100, 100, (0.25, 0.25));
        let b = c.ray_for(50, 50, 100, 100, (0.75, 0.75));
        assert_ne!(a.dir, b.dir);
    }

    #[test]
    fn far_eyes_are_refused_before_their_rays_lose_direction() {
        let up = Vec3::new(0.0, 1.0, 0.0);
        let far = Camera::try_look_at(Vec3::splat(1e17), Vec3::ZERO, up, 60.0, 1.0);
        assert!(far.unwrap_err().contains("too far from the origin"));
        // A million units out every ray still points through its pixel.
        let c = Camera::try_look_at(Vec3::splat(1e6), Vec3::ZERO, up, 60.0, 1.0).unwrap();
        for (px, py) in [(0, 0), (50, 50), (99, 99)] {
            let r = c.ray_for(px, py, 100, 100, (0.5, 0.5));
            assert!((r.dir.length() - 1.0).abs() < 1e-9);
            assert!(r.dir.dot(Vec3::splat(-1.0).normalized()) > 0.7);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_image_panics() {
        cam().ray_for(100, 0, 100, 100, (0.5, 0.5));
    }

    #[test]
    #[should_panic(expected = "(0, 180)")]
    fn bad_fov_panics() {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(0.0, 1.0, 0.0),
            0.0,
            1.0,
        );
    }
}
