//! Geographic coordinates and great-circle math.
//!
//! All distances in this workspace are great-circle (haversine) distances in
//! kilometres, matching the paper's use of "distance in kilometers" for
//! Figures 2, 4 and 8. The Earth is modeled as a sphere of radius
//! [`EARTH_RADIUS_KM`]; the sub-0.5% error of ignoring flattening is far below
//! the geolocation noise the study itself tolerates.

/// Mean Earth radius in kilometres (IUGG mean radius R1).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Half the Earth's circumference — the maximum possible great-circle
/// distance between two points, in kilometres.
pub const MAX_GREAT_CIRCLE_KM: f64 = EARTH_RADIUS_KM * std::f64::consts::PI;

/// A point on the Earth's surface, in degrees.
///
/// Latitude is in `[-90, +90]`, longitude in `[-180, +180]`. Constructors
/// normalize longitude and clamp latitude so that downstream great-circle math
/// is always well-defined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude to `[-90, 90]` and wrapping
    /// longitude into `[-180, 180]`.
    ///
    /// Non-finite inputs are mapped to the origin (0, 0); the simulator never
    /// produces them, but the geolocation error model composes floating-point
    /// operations and we prefer a defined, harmless fallback over a panic in
    /// the middle of a multi-day experiment.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        let lat = if lat_deg.is_finite() {
            lat_deg.clamp(-90.0, 90.0)
        } else {
            0.0
        };
        let lon = if lon_deg.is_finite() {
            wrap_lon(lon_deg)
        } else {
            0.0
        };
        GeoPoint {
            lat_deg: lat,
            lon_deg: lon,
        }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    pub fn lat_deg(&self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees, in `[-180, 180]`.
    pub fn lon_deg(&self) -> f64 {
        self.lon_deg
    }

    /// Latitude in radians.
    pub fn lat_rad(&self) -> f64 {
        self.lat_deg.to_radians()
    }

    /// Longitude in radians.
    pub fn lon_rad(&self) -> f64 {
        self.lon_deg.to_radians()
    }

    /// Great-circle distance to `other` in kilometres, via the haversine
    /// formula (numerically stable for small distances).
    ///
    /// ```
    /// use anycast_geo::GeoPoint;
    ///
    /// let moscow = GeoPoint::new(55.76, 37.62);
    /// let stockholm = GeoPoint::new(59.33, 18.07);
    /// let km = moscow.haversine_km(&stockholm);
    /// assert!((1200.0..1260.0).contains(&km)); // the paper's case-study detour
    /// ```
    pub fn haversine_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_rad(), self.lon_rad());
        let (lat2, lon2) = (other.lat_rad(), other.lon_rad());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        // Clamp guards against a ≈ 1 + ε from rounding at antipodal points.
        let c = 2.0 * a.sqrt().clamp(0.0, 1.0).asin();
        EARTH_RADIUS_KM * c
    }

    /// The point reached by travelling `distance_km` along the great circle
    /// with initial bearing `bearing_deg` (degrees clockwise from north).
    ///
    /// Used by the geolocation error model to displace a true location by a
    /// sampled error distance in a sampled direction.
    pub fn destination(&self, bearing_deg: f64, distance_km: f64) -> GeoPoint {
        let delta = distance_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat_rad();
        let lon1 = self.lon_rad();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        GeoPoint::new(lat2.to_degrees(), lon2.to_degrees())
    }
}

/// Wraps a longitude into `[-180, 180]`.
fn wrap_lon(lon: f64) -> f64 {
    let mut l = (lon + 180.0) % 360.0;
    if l < 0.0 {
        l += 360.0;
    }
    l - 180.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn haversine_known_city_pairs() {
        // Reference distances computed on the same spherical model.
        let nyc = GeoPoint::new(40.7128, -74.0060);
        let london = GeoPoint::new(51.5074, -0.1278);
        let tokyo = GeoPoint::new(35.6762, 139.6503);
        assert!(approx(nyc.haversine_km(&london), 5570.0, 20.0));
        assert!(approx(london.haversine_km(&tokyo), 9560.0, 30.0));
    }

    #[test]
    fn haversine_zero_for_identical_points() {
        let p = GeoPoint::new(47.61, -122.33);
        assert_eq!(p.haversine_km(&p), 0.0);
    }

    #[test]
    fn haversine_symmetric() {
        let a = GeoPoint::new(55.75, 37.62); // Moscow
        let b = GeoPoint::new(59.33, 18.07); // Stockholm
        assert!(approx(a.haversine_km(&b), b.haversine_km(&a), 1e-9));
        // The paper's case study: Moscow clients handed off in Stockholm
        // travel ~1200 km of needless distance.
        assert!(approx(a.haversine_km(&b), 1226.0, 15.0));
    }

    #[test]
    fn haversine_antipodal_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        assert!(approx(a.haversine_km(&b), MAX_GREAT_CIRCLE_KM, 1.0));
    }

    #[test]
    fn latitude_clamped_longitude_wrapped() {
        let p = GeoPoint::new(95.0, 190.0);
        assert_eq!(p.lat_deg(), 90.0);
        assert!(approx(p.lon_deg(), -170.0, 1e-9));
        let q = GeoPoint::new(-95.0, -190.0);
        assert_eq!(q.lat_deg(), -90.0);
        assert!(approx(q.lon_deg(), 170.0, 1e-9));
    }

    #[test]
    fn non_finite_inputs_become_origin() {
        let p = GeoPoint::new(f64::NAN, f64::INFINITY);
        assert_eq!(p.lat_deg(), 0.0);
        assert_eq!(p.lon_deg(), 0.0);
    }

    #[test]
    fn destination_round_trip() {
        let start = GeoPoint::new(48.8566, 2.3522); // Paris
        for bearing in [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0] {
            for dist in [1.0, 100.0, 1000.0, 5000.0] {
                let end = start.destination(bearing, dist);
                assert!(
                    approx(start.haversine_km(&end), dist, dist * 1e-6 + 1e-6),
                    "bearing {bearing} dist {dist}"
                );
            }
        }
    }

    #[test]
    fn destination_zero_distance_is_identity() {
        let p = GeoPoint::new(-33.87, 151.21); // Sydney
        let q = p.destination(123.0, 0.0);
        assert!(p.haversine_km(&q) < 1e-6);
    }

    #[test]
    fn wrap_lon_edge_cases() {
        assert!(approx(wrap_lon(180.0), -180.0, 1e-12));
        assert!(approx(wrap_lon(-180.0), -180.0, 1e-12));
        assert!(approx(wrap_lon(540.0), -180.0, 1e-12));
        assert!(approx(wrap_lon(0.0), 0.0, 1e-12));
        assert!(approx(wrap_lon(359.0), -1.0, 1e-12));
    }
}
