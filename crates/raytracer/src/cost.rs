//! Converting geometric work into simulated MC68020 time.
//!
//! The servant processes in the SUPRENUM simulation do not burn host CPU
//! proportionally to 1990 hardware; instead the tracer counts its
//! elementary operations ([`crate::work::WorkCounters`]) and this model
//! prices them for a 20 MHz MC68020 with MC68882 scalar FPU. The
//! vectorized path prices a whole [`crate::intersect::VECTOR_WIDTH`]-wide
//! batch at a discount, modelling the Weitek VFPU's chained pipelines.
//!
//! Default prices are derived from instruction-count estimates
//! (~50–100 FLOPs per intersection test at ~3 µs per double-precision
//! MC68882 operation) and calibrated so that a moderate-complexity scene
//! costs a few milliseconds per ray — consistent with the cycle times
//! visible in the paper's Figure 7 Gantt chart.

use des::time::SimDuration;

use crate::work::WorkCounters;

/// Prices for elementary tracing operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Fixed per-ray overhead (setup, normalization, loop control).
    pub per_ray: SimDuration,
    /// One scalar ray–primitive intersection test.
    pub per_scalar_test: SimDuration,
    /// One vectorized batch of intersection tests (the VFPU advantage:
    /// this is much less than `VECTOR_WIDTH ×` the scalar price).
    pub per_vector_chunk: SimDuration,
    /// One BVH node visit (box slab test + stack work).
    pub per_bvh_visit: SimDuration,
    /// One surface shading evaluation (lighting model).
    pub per_shading: SimDuration,
}

impl CostModel {
    /// The MC68020/MC68882-anchored default model.
    pub fn mc68020() -> Self {
        CostModel {
            per_ray: SimDuration::from_micros(40),
            per_scalar_test: SimDuration::from_micros(200),
            per_vector_chunk: SimDuration::from_micros(150),
            per_bvh_visit: SimDuration::from_micros(45),
            per_shading: SimDuration::from_micros(250),
        }
    }

    /// The simulated CPU time for the counted work.
    ///
    /// # Examples
    ///
    /// ```
    /// use raytracer::cost::CostModel;
    /// use raytracer::work::WorkCounters;
    ///
    /// let model = CostModel::mc68020();
    /// let work = WorkCounters { rays: 1, scalar_tests: 25, shadings: 1, ..WorkCounters::default() };
    /// let t = model.simulated_time(&work);
    /// assert!(t.as_millis_f64() > 1.0, "a 25-primitive brute-force ray costs milliseconds");
    /// ```
    pub fn simulated_time(&self, work: &WorkCounters) -> SimDuration {
        self.per_ray * work.rays
            + self.per_scalar_test * work.scalar_tests
            + self.per_vector_chunk * work.vector_chunks
            + self.per_bvh_visit * work.bvh_visits
            + self.per_shading * work.shadings
    }

    /// The VFPU speedup this model implies for pure intersection work:
    /// `VECTOR_WIDTH` scalar tests vs. one vector chunk.
    pub fn vector_speedup(&self) -> f64 {
        let scalar = self.per_scalar_test.as_nanos() as f64 * crate::intersect::VECTOR_WIDTH as f64;
        scalar / self.per_vector_chunk.as_nanos() as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::mc68020()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pricing_is_linear() {
        let m = CostModel::mc68020();
        let one = WorkCounters {
            rays: 1,
            scalar_tests: 10,
            ..WorkCounters::default()
        };
        let two = WorkCounters {
            rays: 2,
            scalar_tests: 20,
            ..WorkCounters::default()
        };
        assert_eq!(m.simulated_time(&one) * 2, m.simulated_time(&two));
        assert_eq!(
            m.simulated_time(&WorkCounters::default()),
            SimDuration::ZERO
        );
    }

    #[test]
    fn vectorized_work_is_cheaper() {
        let m = CostModel::mc68020();
        // 100 primitives: 100 scalar tests vs 25 vector chunks.
        let scalar = WorkCounters {
            scalar_tests: 100,
            ..WorkCounters::default()
        };
        let vector = WorkCounters {
            vector_chunks: 25,
            ..WorkCounters::default()
        };
        assert!(m.simulated_time(&vector) < m.simulated_time(&scalar));
        assert!(m.vector_speedup() > 2.0, "VFPU should give a clear speedup");
    }

    #[test]
    fn moderate_scene_ray_costs_milliseconds() {
        let m = CostModel::mc68020();
        // Typical primary ray in the 25-primitive scene with one shadow
        // ray: ~50 tests + 2 shadings.
        let work = WorkCounters {
            rays: 2,
            scalar_tests: 50,
            shadings: 1,
            shadow_queries: 1,
            ..WorkCounters::default()
        };
        let t = m.simulated_time(&work).as_millis_f64();
        assert!(
            (1.0..40.0).contains(&t),
            "per-ray cost {t} ms out of plausible range"
        );
    }
}
