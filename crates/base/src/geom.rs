//! Two-dimensional geometry primitives.
//!
//! The paper's setting encodes coordinates as 4-byte values (`f32` here),
//! which is what makes the byte-level layout arguments of §3.1 work out:
//! a point is 8 bytes, so cache lines hold 8 points' worth of coordinates.
//!
//! All rectangles are *closed*: a point on the boundary is contained. Every
//! index in this workspace uses the same convention so their join results
//! are bit-identical (the integration tests assert this).

/// A 2-D point with single-precision coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    pub x: f32,
    pub y: f32,
}

impl Point {
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other` (no sqrt; used by tests and
    /// the Gaussian workload's hotspot attraction).
    #[inline]
    pub fn dist2(&self, other: &Point) -> f32 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// A 2-D velocity / displacement vector.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec2 {
    pub x: f32,
    pub y: f32,
}

impl Vec2 {
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    #[inline]
    pub fn len(&self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Scale the vector so its norm is at most `max`; zero vectors are
    /// returned unchanged.
    #[inline]
    pub fn clamp_len(self, max: f32) -> Vec2 {
        let l = self.len();
        if l > max && l > 0.0 {
            let s = max / l;
            Vec2::new(self.x * s, self.y * s)
        } else {
            self
        }
    }
}

/// An axis-aligned rectangle, the paper's `Region2D`.
///
/// Invariant: `x1 <= x2 && y1 <= y2` (enforced by [`Rect::new`] in debug
/// builds; the workload generator only produces well-formed regions).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Rect {
    pub x1: f32,
    pub y1: f32,
    pub x2: f32,
    pub y2: f32,
}

impl Rect {
    /// Build a rectangle from its lower-left and upper-right corners.
    #[inline]
    pub fn new(x1: f32, y1: f32, x2: f32, y2: f32) -> Self {
        debug_assert!(
            x1 <= x2 && y1 <= y2,
            "malformed rect: ({x1},{y1})-({x2},{y2})"
        );
        Rect { x1, y1, x2, y2 }
    }

    /// Fallible constructor for rectangles built from **untrusted input**
    /// (CLI arguments, trace files, parsed text): `None` unless
    /// `x1 <= x2 && y1 <= y2`, which also rejects any NaN coordinate
    /// (NaN fails every comparison). [`Rect::new`] only checks the
    /// invariant in debug builds — fine for the workload generators,
    /// which construct well-formed regions by arithmetic, but a release
    /// binary fed a malformed rect from outside must refuse it here
    /// rather than silently produce an empty-range region.
    #[inline]
    pub fn try_new(x1: f32, y1: f32, x2: f32, y2: f32) -> Option<Self> {
        if x1 <= x2 && y1 <= y2 {
            Some(Rect { x1, y1, x2, y2 })
        } else {
            None
        }
    }

    /// The square query region of side `side` centred at `c` — how the
    /// workload turns a querier's position into its range query.
    #[inline]
    pub fn centered_square(c: Point, side: f32) -> Self {
        let h = side * 0.5;
        Rect::new(c.x - h, c.y - h, c.x + h, c.y + h)
    }

    /// The full data space `[0, side]²`.
    #[inline]
    pub fn space(side: f32) -> Self {
        Rect::new(0.0, 0.0, side, side)
    }

    #[inline]
    pub fn width(&self) -> f32 {
        self.x2 - self.x1
    }

    #[inline]
    pub fn height(&self) -> f32 {
        self.y2 - self.y1
    }

    #[inline]
    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// Closed-rectangle point containment.
    #[inline]
    pub fn contains_point(&self, x: f32, y: f32) -> bool {
        x >= self.x1 && x <= self.x2 && y >= self.y1 && y <= self.y2
    }

    /// `true` iff `other` lies entirely inside `self` (closed semantics).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x1 <= other.x1 && other.x2 <= self.x2 && self.y1 <= other.y1 && other.y2 <= self.y2
    }

    /// Closed-rectangle overlap test (touching edges do intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x1 <= other.x2 && other.x1 <= self.x2 && self.y1 <= other.y2 && other.y1 <= self.y2
    }

    /// The overlap of `self` and `other`, `None` if they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let (x1, y1) = (self.x1.max(other.x1), self.y1.max(other.y1));
        Rect::try_new(x1, y1, self.x2.min(other.x2), self.y2.min(other.y2))
    }

    /// Clip `self` to `bounds`. Panics in debug builds if they are disjoint.
    #[inline]
    pub fn clipped_to(&self, bounds: &Rect) -> Rect {
        Rect::new(
            self.x1.max(bounds.x1),
            self.y1.max(bounds.y1),
            self.x2.min(bounds.x2),
            self.y2.min(bounds.y2),
        )
    }

    /// Smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
            x2: self.x2.max(other.x2),
            y2: self.y2.max(other.y2),
        }
    }

    /// Grow the rectangle to cover `(x, y)`.
    #[inline]
    pub fn expand_to(&mut self, x: f32, y: f32) {
        self.x1 = self.x1.min(x);
        self.y1 = self.y1.min(y);
        self.x2 = self.x2.max(x);
        self.y2 = self.y2.max(y);
    }

    /// A degenerate rectangle at a point; useful as a fold seed together
    /// with [`Rect::expand_to`].
    #[inline]
    pub fn at_point(x: f32, y: f32) -> Rect {
        Rect {
            x1: x,
            y1: y,
            x2: x,
            y2: y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_accepts_exactly_the_well_formed_rects() {
        assert_eq!(
            Rect::try_new(0.0, 1.0, 2.0, 3.0),
            Some(Rect::new(0.0, 1.0, 2.0, 3.0))
        );
        // Degenerate (zero-area) rects are well-formed.
        assert_eq!(
            Rect::try_new(5.0, 5.0, 5.0, 5.0),
            Some(Rect::at_point(5.0, 5.0))
        );
        assert_eq!(Rect::try_new(2.0, 0.0, 1.0, 3.0), None, "x inverted");
        assert_eq!(Rect::try_new(0.0, 3.0, 1.0, 2.0), None, "y inverted");
        assert_eq!(Rect::try_new(f32::NAN, 0.0, 1.0, 1.0), None);
        assert_eq!(Rect::try_new(0.0, 0.0, f32::NAN, 1.0), None);
        assert_eq!(Rect::try_new(0.0, f32::NAN, 1.0, 1.0), None);
        assert_eq!(Rect::try_new(0.0, 0.0, 1.0, f32::NAN), None);
    }

    #[test]
    fn centered_square_has_requested_side() {
        let r = Rect::centered_square(Point::new(100.0, 200.0), 400.0);
        assert_eq!(r.width(), 400.0);
        assert_eq!(r.height(), 400.0);
        assert!(r.contains_point(100.0, 200.0));
    }

    #[test]
    fn closed_containment_includes_boundary() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains_point(0.0, 0.0));
        assert!(r.contains_point(10.0, 10.0));
        assert!(r.contains_point(10.0, 0.0));
        assert!(!r.contains_point(10.0001, 0.0));
        assert!(!r.contains_point(-0.0001, 5.0));
    }

    #[test]
    fn touching_rects_intersect() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(10.0, 10.0, 20.0, 20.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let c = Rect::new(10.1, 0.0, 20.0, 10.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn contains_rect_is_reflexive_and_antisymmetric_unless_equal() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(2.0, 2.0, 8.0, 8.0);
        assert!(a.contains_rect(&a));
        assert!(a.contains_rect(&b));
        assert!(!b.contains_rect(&a));
    }

    #[test]
    fn clip_to_space() {
        let space = Rect::space(100.0);
        let q = Rect::centered_square(Point::new(0.0, 0.0), 40.0);
        let c = q.clipped_to(&space);
        assert_eq!(c, Rect::new(0.0, 0.0, 20.0, 20.0));
    }

    #[test]
    fn union_and_expand_agree() {
        let mut a = Rect::at_point(3.0, 4.0);
        a.expand_to(-1.0, 10.0);
        let b = Rect::at_point(3.0, 4.0).union(&Rect::at_point(-1.0, 10.0));
        assert_eq!(a, b);
    }

    #[test]
    fn clamp_len_caps_speed() {
        let v = Vec2::new(30.0, 40.0); // len 50
        let c = v.clamp_len(25.0);
        assert!((c.len() - 25.0).abs() < 1e-3);
        let small = Vec2::new(1.0, 0.0);
        assert_eq!(small.clamp_len(25.0), small);
        let zero = Vec2::default();
        assert_eq!(zero.clamp_len(25.0), zero);
    }

    #[test]
    fn dist2_matches_hand_computation() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.dist2(&b), 25.0);
    }
}
