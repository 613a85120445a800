//! Embedded catalog of world metropolitan areas.
//!
//! The paper's CDN places front-ends "in major metro areas around the world"
//! (§5) and its clients are real Bing users, concentrated where people are.
//! Since the production deployment and client base are inaccessible, this
//! atlas is the synthetic stand-in: ~200 metros with approximate coordinates
//! and metro-area populations (in thousands). Front-ends are placed in the
//! most populous metros per region, clients are sampled proportionally to
//! population, and resolvers sit in the metros their ISPs serve.
//!
//! Population figures are coarse mid-2010s estimates; only their *relative*
//! magnitudes matter, since they act as sampling weights.

use std::sync::OnceLock;

use crate::coords::GeoPoint;
use crate::regions::Region;

/// Identifier of a metro in the [`WorldAtlas`] (index into the catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetroId(pub u32);

impl std::fmt::Display for MetroId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metro{}", self.0)
    }
}

/// A metropolitan area: the unit of geographic placement in the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metro {
    /// City name (largest city of the metro area).
    pub name: &'static str,
    /// ISO 3166-1 alpha-2 country code.
    pub country: &'static str,
    /// Continental region.
    pub region: Region,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Approximate metro-area population, in thousands.
    pub population_k: u32,
}

impl Metro {
    /// Location of the metro center.
    pub fn location(&self) -> GeoPoint {
        GeoPoint::new(self.lat, self.lon)
    }
}

use Region::{Africa, Asia, Europe, NorthAmerica, Oceania, SouthAmerica};

/// The static metro catalog. Kept sorted by region then roughly by
/// population so the table is reviewable; `WorldAtlas` provides indexed and
/// weighted access.
#[rustfmt::skip]
pub const METROS: &[Metro] = &[
    // --- North America: United States ---
    Metro { name: "New York", country: "US", region: NorthAmerica, lat: 40.7128, lon: -74.0060, population_k: 20100 },
    Metro { name: "Los Angeles", country: "US", region: NorthAmerica, lat: 34.0522, lon: -118.2437, population_k: 13300 },
    Metro { name: "Chicago", country: "US", region: NorthAmerica, lat: 41.8781, lon: -87.6298, population_k: 9500 },
    Metro { name: "Dallas", country: "US", region: NorthAmerica, lat: 32.7767, lon: -96.7970, population_k: 7100 },
    Metro { name: "Houston", country: "US", region: NorthAmerica, lat: 29.7604, lon: -95.3698, population_k: 6700 },
    Metro { name: "Washington", country: "US", region: NorthAmerica, lat: 38.9072, lon: -77.0369, population_k: 6100 },
    Metro { name: "Philadelphia", country: "US", region: NorthAmerica, lat: 39.9526, lon: -75.1652, population_k: 6100 },
    Metro { name: "Miami", country: "US", region: NorthAmerica, lat: 25.7617, lon: -80.1918, population_k: 6000 },
    Metro { name: "Atlanta", country: "US", region: NorthAmerica, lat: 33.7490, lon: -84.3880, population_k: 5800 },
    Metro { name: "Boston", country: "US", region: NorthAmerica, lat: 42.3601, lon: -71.0589, population_k: 4800 },
    Metro { name: "Phoenix", country: "US", region: NorthAmerica, lat: 33.4484, lon: -112.0740, population_k: 4600 },
    Metro { name: "San Francisco", country: "US", region: NorthAmerica, lat: 37.7749, lon: -122.4194, population_k: 4600 },
    Metro { name: "Seattle", country: "US", region: NorthAmerica, lat: 47.6062, lon: -122.3321, population_k: 3800 },
    Metro { name: "Detroit", country: "US", region: NorthAmerica, lat: 42.3314, lon: -83.0458, population_k: 4300 },
    Metro { name: "Minneapolis", country: "US", region: NorthAmerica, lat: 44.9778, lon: -93.2650, population_k: 3600 },
    Metro { name: "San Diego", country: "US", region: NorthAmerica, lat: 32.7157, lon: -117.1611, population_k: 3300 },
    Metro { name: "Tampa", country: "US", region: NorthAmerica, lat: 27.9506, lon: -82.4572, population_k: 3100 },
    Metro { name: "Denver", country: "US", region: NorthAmerica, lat: 39.7392, lon: -104.9903, population_k: 2900 },
    Metro { name: "St. Louis", country: "US", region: NorthAmerica, lat: 38.6270, lon: -90.1994, population_k: 2800 },
    Metro { name: "Baltimore", country: "US", region: NorthAmerica, lat: 39.2904, lon: -76.6122, population_k: 2800 },
    Metro { name: "Charlotte", country: "US", region: NorthAmerica, lat: 35.2271, lon: -80.8431, population_k: 2600 },
    Metro { name: "Portland", country: "US", region: NorthAmerica, lat: 45.5152, lon: -122.6784, population_k: 2500 },
    Metro { name: "San Antonio", country: "US", region: NorthAmerica, lat: 29.4241, lon: -98.4936, population_k: 2500 },
    Metro { name: "Orlando", country: "US", region: NorthAmerica, lat: 28.5383, lon: -81.3792, population_k: 2500 },
    Metro { name: "Sacramento", country: "US", region: NorthAmerica, lat: 38.5816, lon: -121.4944, population_k: 2300 },
    Metro { name: "Pittsburgh", country: "US", region: NorthAmerica, lat: 40.4406, lon: -79.9959, population_k: 2300 },
    Metro { name: "Las Vegas", country: "US", region: NorthAmerica, lat: 36.1699, lon: -115.1398, population_k: 2200 },
    Metro { name: "Cincinnati", country: "US", region: NorthAmerica, lat: 39.1031, lon: -84.5120, population_k: 2200 },
    Metro { name: "Kansas City", country: "US", region: NorthAmerica, lat: 39.0997, lon: -94.5786, population_k: 2100 },
    Metro { name: "Austin", country: "US", region: NorthAmerica, lat: 30.2672, lon: -97.7431, population_k: 2100 },
    Metro { name: "Columbus", country: "US", region: NorthAmerica, lat: 39.9612, lon: -82.9988, population_k: 2000 },
    Metro { name: "Cleveland", country: "US", region: NorthAmerica, lat: 41.4993, lon: -81.6944, population_k: 2000 },
    Metro { name: "Indianapolis", country: "US", region: NorthAmerica, lat: 39.7684, lon: -86.1581, population_k: 2000 },
    Metro { name: "Nashville", country: "US", region: NorthAmerica, lat: 36.1627, lon: -86.7816, population_k: 1900 },
    Metro { name: "Salt Lake City", country: "US", region: NorthAmerica, lat: 40.7608, lon: -111.8910, population_k: 1200 },
    Metro { name: "Raleigh", country: "US", region: NorthAmerica, lat: 35.7796, lon: -78.6382, population_k: 1300 },
    Metro { name: "New Orleans", country: "US", region: NorthAmerica, lat: 29.9511, lon: -90.0715, population_k: 1270 },
    Metro { name: "Jacksonville", country: "US", region: NorthAmerica, lat: 30.3322, lon: -81.6557, population_k: 1500 },
    Metro { name: "Oklahoma City", country: "US", region: NorthAmerica, lat: 35.4676, lon: -97.5164, population_k: 1400 },
    Metro { name: "Memphis", country: "US", region: NorthAmerica, lat: 35.1495, lon: -90.0490, population_k: 1300 },
    Metro { name: "Milwaukee", country: "US", region: NorthAmerica, lat: 43.0389, lon: -87.9065, population_k: 1600 },
    Metro { name: "Albuquerque", country: "US", region: NorthAmerica, lat: 35.0844, lon: -106.6504, population_k: 910 },
    Metro { name: "Boise", country: "US", region: NorthAmerica, lat: 43.6150, lon: -116.2023, population_k: 710 },
    Metro { name: "Omaha", country: "US", region: NorthAmerica, lat: 41.2565, lon: -95.9345, population_k: 940 },
    Metro { name: "Honolulu", country: "US", region: NorthAmerica, lat: 21.3069, lon: -157.8583, population_k: 980 },
    Metro { name: "Anchorage", country: "US", region: NorthAmerica, lat: 61.2181, lon: -149.9003, population_k: 400 },
    // --- North America: Canada ---
    Metro { name: "Toronto", country: "CA", region: NorthAmerica, lat: 43.6532, lon: -79.3832, population_k: 6200 },
    Metro { name: "Montreal", country: "CA", region: NorthAmerica, lat: 45.5017, lon: -73.5673, population_k: 4200 },
    Metro { name: "Vancouver", country: "CA", region: NorthAmerica, lat: 49.2827, lon: -123.1207, population_k: 2600 },
    Metro { name: "Calgary", country: "CA", region: NorthAmerica, lat: 51.0447, lon: -114.0719, population_k: 1500 },
    Metro { name: "Ottawa", country: "CA", region: NorthAmerica, lat: 45.4215, lon: -75.6972, population_k: 1400 },
    Metro { name: "Edmonton", country: "CA", region: NorthAmerica, lat: 53.5461, lon: -113.4938, population_k: 1400 },
    Metro { name: "Winnipeg", country: "CA", region: NorthAmerica, lat: 49.8951, lon: -97.1384, population_k: 830 },
    Metro { name: "Halifax", country: "CA", region: NorthAmerica, lat: 44.6488, lon: -63.5752, population_k: 440 },
    // --- North America: Mexico, Central America, Caribbean ---
    Metro { name: "Mexico City", country: "MX", region: NorthAmerica, lat: 19.4326, lon: -99.1332, population_k: 21600 },
    Metro { name: "Guadalajara", country: "MX", region: NorthAmerica, lat: 20.6597, lon: -103.3496, population_k: 5100 },
    Metro { name: "Monterrey", country: "MX", region: NorthAmerica, lat: 25.6866, lon: -100.3161, population_k: 4700 },
    Metro { name: "Tijuana", country: "MX", region: NorthAmerica, lat: 32.5149, lon: -117.0382, population_k: 2100 },
    Metro { name: "Guatemala City", country: "GT", region: NorthAmerica, lat: 14.6349, lon: -90.5069, population_k: 3000 },
    Metro { name: "San Jose CR", country: "CR", region: NorthAmerica, lat: 9.9281, lon: -84.0907, population_k: 2200 },
    Metro { name: "Panama City", country: "PA", region: NorthAmerica, lat: 8.9824, lon: -79.5199, population_k: 1900 },
    Metro { name: "Havana", country: "CU", region: NorthAmerica, lat: 23.1136, lon: -82.3666, population_k: 2100 },
    Metro { name: "Santo Domingo", country: "DO", region: NorthAmerica, lat: 18.4861, lon: -69.9312, population_k: 3300 },
    Metro { name: "San Juan", country: "PR", region: NorthAmerica, lat: 18.4655, lon: -66.1057, population_k: 2300 },
    // --- South America ---
    Metro { name: "Sao Paulo", country: "BR", region: SouthAmerica, lat: -23.5505, lon: -46.6333, population_k: 21700 },
    Metro { name: "Buenos Aires", country: "AR", region: SouthAmerica, lat: -34.6037, lon: -58.3816, population_k: 15000 },
    Metro { name: "Rio de Janeiro", country: "BR", region: SouthAmerica, lat: -22.9068, lon: -43.1729, population_k: 13000 },
    Metro { name: "Bogota", country: "CO", region: SouthAmerica, lat: 4.7110, lon: -74.0721, population_k: 10700 },
    Metro { name: "Lima", country: "PE", region: SouthAmerica, lat: -12.0464, lon: -77.0428, population_k: 10400 },
    Metro { name: "Santiago", country: "CL", region: SouthAmerica, lat: -33.4489, lon: -70.6693, population_k: 6800 },
    Metro { name: "Belo Horizonte", country: "BR", region: SouthAmerica, lat: -19.9167, lon: -43.9345, population_k: 6000 },
    Metro { name: "Brasilia", country: "BR", region: SouthAmerica, lat: -15.8267, lon: -47.9218, population_k: 4600 },
    Metro { name: "Porto Alegre", country: "BR", region: SouthAmerica, lat: -30.0346, lon: -51.2177, population_k: 4300 },
    Metro { name: "Recife", country: "BR", region: SouthAmerica, lat: -8.0476, lon: -34.8770, population_k: 4100 },
    Metro { name: "Fortaleza", country: "BR", region: SouthAmerica, lat: -3.7319, lon: -38.5267, population_k: 4100 },
    Metro { name: "Medellin", country: "CO", region: SouthAmerica, lat: 6.2442, lon: -75.5812, population_k: 4000 },
    Metro { name: "Salvador", country: "BR", region: SouthAmerica, lat: -12.9777, lon: -38.5016, population_k: 3900 },
    Metro { name: "Caracas", country: "VE", region: SouthAmerica, lat: 10.4806, lon: -66.9036, population_k: 2900 },
    Metro { name: "Curitiba", country: "BR", region: SouthAmerica, lat: -25.4284, lon: -49.2733, population_k: 3600 },
    Metro { name: "Quito", country: "EC", region: SouthAmerica, lat: -0.1807, lon: -78.4678, population_k: 2800 },
    Metro { name: "Montevideo", country: "UY", region: SouthAmerica, lat: -34.9011, lon: -56.1645, population_k: 1800 },
    Metro { name: "Asuncion", country: "PY", region: SouthAmerica, lat: -25.2637, lon: -57.5759, population_k: 2300 },
    Metro { name: "La Paz", country: "BO", region: SouthAmerica, lat: -16.4897, lon: -68.1193, population_k: 1900 },
    // --- Europe ---
    Metro { name: "London", country: "GB", region: Europe, lat: 51.5074, lon: -0.1278, population_k: 14000 },
    Metro { name: "Paris", country: "FR", region: Europe, lat: 48.8566, lon: 2.3522, population_k: 12500 },
    Metro { name: "Madrid", country: "ES", region: Europe, lat: 40.4168, lon: -3.7038, population_k: 6600 },
    Metro { name: "Barcelona", country: "ES", region: Europe, lat: 41.3851, lon: 2.1734, population_k: 5500 },
    Metro { name: "Berlin", country: "DE", region: Europe, lat: 52.5200, lon: 13.4050, population_k: 6100 },
    Metro { name: "Milan", country: "IT", region: Europe, lat: 45.4642, lon: 9.1900, population_k: 5100 },
    Metro { name: "Rome", country: "IT", region: Europe, lat: 41.9028, lon: 12.4964, population_k: 4300 },
    Metro { name: "Moscow", country: "RU", region: Europe, lat: 55.7558, lon: 37.6173, population_k: 16800 },
    Metro { name: "St. Petersburg", country: "RU", region: Europe, lat: 59.9311, lon: 30.3609, population_k: 5400 },
    Metro { name: "Istanbul", country: "TR", region: Europe, lat: 41.0082, lon: 28.9784, population_k: 14800 },
    Metro { name: "Amsterdam", country: "NL", region: Europe, lat: 52.3676, lon: 4.9041, population_k: 2500 },
    Metro { name: "Brussels", country: "BE", region: Europe, lat: 50.8503, lon: 4.3517, population_k: 2100 },
    Metro { name: "Frankfurt", country: "DE", region: Europe, lat: 50.1109, lon: 8.6821, population_k: 2700 },
    Metro { name: "Munich", country: "DE", region: Europe, lat: 48.1351, lon: 11.5820, population_k: 2900 },
    Metro { name: "Hamburg", country: "DE", region: Europe, lat: 53.5511, lon: 9.9937, population_k: 3300 },
    Metro { name: "Cologne", country: "DE", region: Europe, lat: 50.9375, lon: 6.9603, population_k: 3500 },
    Metro { name: "Vienna", country: "AT", region: Europe, lat: 48.2082, lon: 16.3738, population_k: 2800 },
    Metro { name: "Zurich", country: "CH", region: Europe, lat: 47.3769, lon: 8.5417, population_k: 1400 },
    Metro { name: "Geneva", country: "CH", region: Europe, lat: 46.2044, lon: 6.1432, population_k: 630 },
    Metro { name: "Stockholm", country: "SE", region: Europe, lat: 59.3293, lon: 18.0686, population_k: 2300 },
    Metro { name: "Copenhagen", country: "DK", region: Europe, lat: 55.6761, lon: 12.5683, population_k: 2100 },
    Metro { name: "Oslo", country: "NO", region: Europe, lat: 59.9139, lon: 10.7522, population_k: 1500 },
    Metro { name: "Helsinki", country: "FI", region: Europe, lat: 60.1699, lon: 24.9384, population_k: 1500 },
    Metro { name: "Dublin", country: "IE", region: Europe, lat: 53.3498, lon: -6.2603, population_k: 1900 },
    Metro { name: "Manchester", country: "GB", region: Europe, lat: 53.4808, lon: -2.2426, population_k: 2800 },
    Metro { name: "Birmingham", country: "GB", region: Europe, lat: 52.4862, lon: -1.8904, population_k: 2900 },
    Metro { name: "Glasgow", country: "GB", region: Europe, lat: 55.8642, lon: -4.2518, population_k: 1800 },
    Metro { name: "Lisbon", country: "PT", region: Europe, lat: 38.7223, lon: -9.1393, population_k: 2900 },
    Metro { name: "Porto", country: "PT", region: Europe, lat: 41.1579, lon: -8.6291, population_k: 1700 },
    Metro { name: "Lyon", country: "FR", region: Europe, lat: 45.7640, lon: 4.8357, population_k: 2300 },
    Metro { name: "Marseille", country: "FR", region: Europe, lat: 43.2965, lon: 5.3698, population_k: 1800 },
    Metro { name: "Warsaw", country: "PL", region: Europe, lat: 52.2297, lon: 21.0122, population_k: 3100 },
    Metro { name: "Krakow", country: "PL", region: Europe, lat: 50.0647, lon: 19.9450, population_k: 1500 },
    Metro { name: "Prague", country: "CZ", region: Europe, lat: 50.0755, lon: 14.4378, population_k: 2700 },
    Metro { name: "Budapest", country: "HU", region: Europe, lat: 47.4979, lon: 19.0402, population_k: 3000 },
    Metro { name: "Bucharest", country: "RO", region: Europe, lat: 44.4268, lon: 26.1025, population_k: 2300 },
    Metro { name: "Sofia", country: "BG", region: Europe, lat: 42.6977, lon: 23.3219, population_k: 1700 },
    Metro { name: "Athens", country: "GR", region: Europe, lat: 37.9838, lon: 23.7275, population_k: 3800 },
    Metro { name: "Belgrade", country: "RS", region: Europe, lat: 44.7866, lon: 20.4489, population_k: 1700 },
    Metro { name: "Zagreb", country: "HR", region: Europe, lat: 45.8150, lon: 15.9819, population_k: 1100 },
    Metro { name: "Kyiv", country: "UA", region: Europe, lat: 50.4501, lon: 30.5234, population_k: 3400 },
    Metro { name: "Minsk", country: "BY", region: Europe, lat: 53.9006, lon: 27.5590, population_k: 2000 },
    Metro { name: "Riga", country: "LV", region: Europe, lat: 56.9496, lon: 24.1052, population_k: 1000 },
    Metro { name: "Vilnius", country: "LT", region: Europe, lat: 54.6872, lon: 25.2797, population_k: 810 },
    Metro { name: "Tallinn", country: "EE", region: Europe, lat: 59.4370, lon: 24.7536, population_k: 610 },
    Metro { name: "Nizhny Novgorod", country: "RU", region: Europe, lat: 56.2965, lon: 43.9361, population_k: 2100 },
    Metro { name: "Kazan", country: "RU", region: Europe, lat: 55.8304, lon: 49.0661, population_k: 1600 },
    Metro { name: "Rotterdam", country: "NL", region: Europe, lat: 51.9244, lon: 4.4777, population_k: 1800 },
    Metro { name: "Antwerp", country: "BE", region: Europe, lat: 51.2194, lon: 4.4025, population_k: 1100 },
    Metro { name: "Turin", country: "IT", region: Europe, lat: 45.0703, lon: 7.6869, population_k: 2200 },
    Metro { name: "Naples", country: "IT", region: Europe, lat: 40.8518, lon: 14.2681, population_k: 3100 },
    Metro { name: "Seville", country: "ES", region: Europe, lat: 37.3891, lon: -5.9845, population_k: 1500 },
    Metro { name: "Valencia", country: "ES", region: Europe, lat: 39.4699, lon: -0.3763, population_k: 1700 },
    // --- Asia & Middle East ---
    Metro { name: "Tokyo", country: "JP", region: Asia, lat: 35.6762, lon: 139.6503, population_k: 37400 },
    Metro { name: "Osaka", country: "JP", region: Asia, lat: 34.6937, lon: 135.5023, population_k: 19200 },
    Metro { name: "Nagoya", country: "JP", region: Asia, lat: 35.1815, lon: 136.9066, population_k: 9500 },
    Metro { name: "Fukuoka", country: "JP", region: Asia, lat: 33.5904, lon: 130.4017, population_k: 5500 },
    Metro { name: "Sapporo", country: "JP", region: Asia, lat: 43.0618, lon: 141.3545, population_k: 2600 },
    Metro { name: "Delhi", country: "IN", region: Asia, lat: 28.7041, lon: 77.1025, population_k: 29400 },
    Metro { name: "Mumbai", country: "IN", region: Asia, lat: 19.0760, lon: 72.8777, population_k: 23400 },
    Metro { name: "Kolkata", country: "IN", region: Asia, lat: 22.5726, lon: 88.3639, population_k: 14900 },
    Metro { name: "Bangalore", country: "IN", region: Asia, lat: 12.9716, lon: 77.5946, population_k: 12300 },
    Metro { name: "Chennai", country: "IN", region: Asia, lat: 13.0827, lon: 80.2707, population_k: 10900 },
    Metro { name: "Hyderabad", country: "IN", region: Asia, lat: 17.3850, lon: 78.4867, population_k: 9700 },
    Metro { name: "Ahmedabad", country: "IN", region: Asia, lat: 23.0225, lon: 72.5714, population_k: 7800 },
    Metro { name: "Pune", country: "IN", region: Asia, lat: 18.5204, lon: 73.8567, population_k: 6500 },
    Metro { name: "Shanghai", country: "CN", region: Asia, lat: 31.2304, lon: 121.4737, population_k: 26300 },
    Metro { name: "Beijing", country: "CN", region: Asia, lat: 39.9042, lon: 116.4074, population_k: 21500 },
    Metro { name: "Guangzhou", country: "CN", region: Asia, lat: 23.1291, lon: 113.2644, population_k: 13300 },
    Metro { name: "Shenzhen", country: "CN", region: Asia, lat: 22.5431, lon: 114.0579, population_k: 12400 },
    Metro { name: "Chengdu", country: "CN", region: Asia, lat: 30.5728, lon: 104.0668, population_k: 9100 },
    Metro { name: "Wuhan", country: "CN", region: Asia, lat: 30.5928, lon: 114.3055, population_k: 8400 },
    Metro { name: "Tianjin", country: "CN", region: Asia, lat: 39.3434, lon: 117.3616, population_k: 13200 },
    Metro { name: "Hong Kong", country: "HK", region: Asia, lat: 22.3193, lon: 114.1694, population_k: 7400 },
    Metro { name: "Taipei", country: "TW", region: Asia, lat: 25.0330, lon: 121.5654, population_k: 7000 },
    Metro { name: "Seoul", country: "KR", region: Asia, lat: 37.5665, lon: 126.9780, population_k: 25500 },
    Metro { name: "Busan", country: "KR", region: Asia, lat: 35.1796, lon: 129.0756, population_k: 3400 },
    Metro { name: "Singapore", country: "SG", region: Asia, lat: 1.3521, lon: 103.8198, population_k: 5600 },
    Metro { name: "Kuala Lumpur", country: "MY", region: Asia, lat: 3.1390, lon: 101.6869, population_k: 7600 },
    Metro { name: "Jakarta", country: "ID", region: Asia, lat: -6.2088, lon: 106.8456, population_k: 33400 },
    Metro { name: "Surabaya", country: "ID", region: Asia, lat: -7.2575, lon: 112.7521, population_k: 9500 },
    Metro { name: "Bangkok", country: "TH", region: Asia, lat: 13.7563, lon: 100.5018, population_k: 15900 },
    Metro { name: "Manila", country: "PH", region: Asia, lat: 14.5995, lon: 120.9842, population_k: 23900 },
    Metro { name: "Ho Chi Minh City", country: "VN", region: Asia, lat: 10.8231, lon: 106.6297, population_k: 13500 },
    Metro { name: "Hanoi", country: "VN", region: Asia, lat: 21.0278, lon: 105.8342, population_k: 7800 },
    Metro { name: "Dhaka", country: "BD", region: Asia, lat: 23.8103, lon: 90.4125, population_k: 19600 },
    Metro { name: "Karachi", country: "PK", region: Asia, lat: 24.8607, lon: 67.0011, population_k: 16100 },
    Metro { name: "Lahore", country: "PK", region: Asia, lat: 31.5204, lon: 74.3587, population_k: 11700 },
    Metro { name: "Colombo", country: "LK", region: Asia, lat: 6.9271, lon: 79.8612, population_k: 2300 },
    Metro { name: "Kathmandu", country: "NP", region: Asia, lat: 27.7172, lon: 85.3240, population_k: 1400 },
    Metro { name: "Dubai", country: "AE", region: Asia, lat: 25.2048, lon: 55.2708, population_k: 2900 },
    Metro { name: "Abu Dhabi", country: "AE", region: Asia, lat: 24.4539, lon: 54.3773, population_k: 1500 },
    Metro { name: "Riyadh", country: "SA", region: Asia, lat: 24.7136, lon: 46.6753, population_k: 6900 },
    Metro { name: "Jeddah", country: "SA", region: Asia, lat: 21.4858, lon: 39.1925, population_k: 4300 },
    Metro { name: "Doha", country: "QA", region: Asia, lat: 25.2854, lon: 51.5310, population_k: 2400 },
    Metro { name: "Kuwait City", country: "KW", region: Asia, lat: 29.3759, lon: 47.9774, population_k: 3100 },
    Metro { name: "Tel Aviv", country: "IL", region: Asia, lat: 32.0853, lon: 34.7818, population_k: 3900 },
    Metro { name: "Amman", country: "JO", region: Asia, lat: 31.9454, lon: 35.9284, population_k: 2100 },
    Metro { name: "Beirut", country: "LB", region: Asia, lat: 33.8938, lon: 35.5018, population_k: 2200 },
    Metro { name: "Baghdad", country: "IQ", region: Asia, lat: 33.3152, lon: 44.3661, population_k: 6800 },
    Metro { name: "Tehran", country: "IR", region: Asia, lat: 35.6892, lon: 51.3890, population_k: 13500 },
    Metro { name: "Almaty", country: "KZ", region: Asia, lat: 43.2220, lon: 76.8512, population_k: 1800 },
    Metro { name: "Tashkent", country: "UZ", region: Asia, lat: 41.2995, lon: 69.2401, population_k: 2500 },
    Metro { name: "Baku", country: "AZ", region: Asia, lat: 40.4093, lon: 49.8671, population_k: 2300 },
    Metro { name: "Tbilisi", country: "GE", region: Asia, lat: 41.7151, lon: 44.8271, population_k: 1200 },
    Metro { name: "Yekaterinburg", country: "RU", region: Asia, lat: 56.8389, lon: 60.6057, population_k: 1500 },
    Metro { name: "Novosibirsk", country: "RU", region: Asia, lat: 55.0084, lon: 82.9357, population_k: 1600 },
    Metro { name: "Vladivostok", country: "RU", region: Asia, lat: 43.1332, lon: 131.9113, population_k: 610 },
    // --- Africa ---
    Metro { name: "Cairo", country: "EG", region: Africa, lat: 30.0444, lon: 31.2357, population_k: 20100 },
    Metro { name: "Lagos", country: "NG", region: Africa, lat: 6.5244, lon: 3.3792, population_k: 13900 },
    Metro { name: "Kinshasa", country: "CD", region: Africa, lat: -4.4419, lon: 15.2663, population_k: 13200 },
    Metro { name: "Johannesburg", country: "ZA", region: Africa, lat: -26.2041, lon: 28.0473, population_k: 9600 },
    Metro { name: "Luanda", country: "AO", region: Africa, lat: -8.8390, lon: 13.2894, population_k: 7800 },
    Metro { name: "Khartoum", country: "SD", region: Africa, lat: 15.5007, lon: 32.5599, population_k: 5700 },
    Metro { name: "Dar es Salaam", country: "TZ", region: Africa, lat: -6.7924, lon: 39.2083, population_k: 6000 },
    Metro { name: "Alexandria", country: "EG", region: Africa, lat: 31.2001, lon: 29.9187, population_k: 5100 },
    Metro { name: "Abidjan", country: "CI", region: Africa, lat: 5.3600, lon: -4.0083, population_k: 4900 },
    Metro { name: "Nairobi", country: "KE", region: Africa, lat: -1.2921, lon: 36.8219, population_k: 4400 },
    Metro { name: "Casablanca", country: "MA", region: Africa, lat: 33.5731, lon: -7.5898, population_k: 3700 },
    Metro { name: "Addis Ababa", country: "ET", region: Africa, lat: 9.0300, lon: 38.7400, population_k: 4400 },
    Metro { name: "Cape Town", country: "ZA", region: Africa, lat: -33.9249, lon: 18.4241, population_k: 4400 },
    Metro { name: "Accra", country: "GH", region: Africa, lat: 5.6037, lon: -0.1870, population_k: 2500 },
    Metro { name: "Algiers", country: "DZ", region: Africa, lat: 36.7538, lon: 3.0588, population_k: 2700 },
    Metro { name: "Tunis", country: "TN", region: Africa, lat: 36.8065, lon: 10.1815, population_k: 2300 },
    Metro { name: "Dakar", country: "SN", region: Africa, lat: 14.7167, lon: -17.4677, population_k: 3100 },
    Metro { name: "Durban", country: "ZA", region: Africa, lat: -29.8587, lon: 31.0218, population_k: 3400 },
    Metro { name: "Kampala", country: "UG", region: Africa, lat: 0.3476, lon: 32.5825, population_k: 3300 },
    Metro { name: "Lusaka", country: "ZM", region: Africa, lat: -15.3875, lon: 28.3228, population_k: 2500 },
    // --- Oceania ---
    Metro { name: "Sydney", country: "AU", region: Oceania, lat: -33.8688, lon: 151.2093, population_k: 5300 },
    Metro { name: "Melbourne", country: "AU", region: Oceania, lat: -37.8136, lon: 144.9631, population_k: 5000 },
    Metro { name: "Brisbane", country: "AU", region: Oceania, lat: -27.4698, lon: 153.0251, population_k: 2500 },
    Metro { name: "Perth", country: "AU", region: Oceania, lat: -31.9505, lon: 115.8605, population_k: 2100 },
    Metro { name: "Adelaide", country: "AU", region: Oceania, lat: -34.9285, lon: 138.6007, population_k: 1400 },
    Metro { name: "Auckland", country: "NZ", region: Oceania, lat: -36.8485, lon: 174.7633, population_k: 1700 },
    Metro { name: "Wellington", country: "NZ", region: Oceania, lat: -41.2866, lon: 174.7756, population_k: 420 },
    Metro { name: "Christchurch", country: "NZ", region: Oceania, lat: -43.5321, lon: 172.6362, population_k: 400 },
];

/// Great-circle km between every ordered pair of catalog metros:
/// `METRO_KM[a][b]` is `metro(a).location().haversine_km(&metro(b).location())`,
/// argument order included. Built on the first [`WorldAtlas::metro_km`] call
/// of the process and shared by every atlas (the catalog is static, so the
/// table is too).
static METRO_KM: OnceLock<Vec<[f64; METROS.len()]>> = OnceLock::new();

/// Indexed, weighted access to the metro catalog.
///
/// The atlas owns cumulative population weights so metros can be sampled
/// proportionally to population in O(log n), which is how the workload
/// generator places clients.
#[derive(Debug, Clone)]
pub struct WorldAtlas {
    cumulative_pop: Vec<u64>,
    total_pop: u64,
}

impl Default for WorldAtlas {
    fn default() -> Self {
        Self::new()
    }
}

impl WorldAtlas {
    /// Builds the atlas over the embedded [`METROS`] catalog.
    pub fn new() -> Self {
        let mut cumulative_pop = Vec::with_capacity(METROS.len());
        let mut total: u64 = 0;
        for m in METROS {
            total += u64::from(m.population_k);
            cumulative_pop.push(total);
        }
        WorldAtlas {
            cumulative_pop,
            total_pop: total,
        }
    }

    /// Number of metros in the catalog.
    pub fn len(&self) -> usize {
        METROS.len()
    }

    /// Whether the catalog is empty (it never is; provided for API hygiene).
    pub fn is_empty(&self) -> bool {
        METROS.is_empty()
    }

    /// The metro with the given id. Panics if the id is out of range, which
    /// indicates a cross-atlas id mixup (a programming error, not an input
    /// error).
    pub fn metro(&self, id: MetroId) -> &'static Metro {
        &METROS[id.0 as usize]
    }

    /// Great-circle distance between the centers of metros `a` and `b`, in
    /// km: bit for bit the value of
    /// `self.metro(a).location().haversine_km(&self.metro(b).location())`,
    /// read from a table computed once per process. Routing ranks and
    /// charges metro-to-metro distances hundreds of thousands of times a
    /// simulated day; [`GeoPoint::haversine_km`] stays the only definition
    /// of distance. Panics on an out-of-range id, like [`WorldAtlas::metro`].
    pub fn metro_km(&self, a: MetroId, b: MetroId) -> f64 {
        self.metro_km_from(a)[b.0 as usize]
    }

    /// [`WorldAtlas::metro_km`] from `a` to every metro of the catalog,
    /// indexed by [`MetroId`] — for a loop that ranks many metros from one.
    pub fn metro_km_from(&self, a: MetroId) -> &'static [f64] {
        let table = METRO_KM.get_or_init(|| {
            METROS
                .iter()
                .map(|from| {
                    let from = from.location();
                    std::array::from_fn(|to| from.haversine_km(&METROS[to].location()))
                })
                .collect()
        });
        &table[a.0 as usize]
    }

    /// Iterator over `(id, metro)` pairs in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (MetroId, &'static Metro)> {
        METROS
            .iter()
            .enumerate()
            .map(|(i, m)| (MetroId(i as u32), m))
    }

    /// Samples a metro proportionally to population using the provided
    /// uniform draw `u ∈ [0, 1)`. Deterministic given `u`; callers supply
    /// randomness explicitly.
    pub fn sample_by_population(&self, u: f64) -> MetroId {
        let target = (u.clamp(0.0, 1.0 - f64::EPSILON) * self.total_pop as f64) as u64;
        let idx = self.cumulative_pop.partition_point(|&c| c <= target);
        MetroId(idx.min(METROS.len() - 1) as u32)
    }

    /// Ids of the `n` most populous metros within `region` (or worldwide if
    /// `region` is `None`), in descending population order.
    pub fn top_by_population(&self, n: usize, region: Option<Region>) -> Vec<MetroId> {
        let mut ids: Vec<MetroId> = self
            .iter()
            .filter(|(_, m)| region.is_none_or(|r| m.region == r))
            .map(|(id, _)| id)
            .collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.metro(*id).population_k));
        ids.truncate(n);
        ids
    }

    /// Id of the metro whose center is nearest to `point`.
    pub fn nearest_metro(&self, point: &GeoPoint) -> MetroId {
        let mut best = MetroId(0);
        let mut best_d = f64::INFINITY;
        for (id, m) in self.iter() {
            let d = m.location().haversine_km(point);
            if d < best_d {
                best_d = d;
                best = id;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_global_coverage() {
        let atlas = WorldAtlas::new();
        assert!(
            atlas.len() >= 180,
            "catalog unexpectedly small: {}",
            atlas.len()
        );
        for region in Region::ALL {
            assert!(
                atlas.iter().any(|(_, m)| m.region == region),
                "no metros in {region}"
            );
        }
    }

    #[test]
    fn coordinates_and_populations_are_sane() {
        for m in METROS {
            assert!(m.lat.abs() <= 90.0, "{}", m.name);
            assert!(m.lon.abs() <= 180.0, "{}", m.name);
            assert!(m.population_k >= 100, "{} too small to matter", m.name);
            assert!(m.population_k < 50_000, "{} population implausible", m.name);
            assert_eq!(m.country.len(), 2, "{} country code", m.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = METROS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METROS.len());
    }

    #[test]
    fn sample_by_population_covers_extremes() {
        let atlas = WorldAtlas::new();
        assert_eq!(atlas.sample_by_population(0.0).0, 0);
        let last = atlas.sample_by_population(1.0 - 1e-12);
        assert_eq!(last.0 as usize, METROS.len() - 1);
        // Out-of-range draws are clamped rather than panicking.
        assert_eq!(atlas.sample_by_population(2.0).0 as usize, METROS.len() - 1);
        assert_eq!(atlas.sample_by_population(-1.0).0, 0);
    }

    #[test]
    fn sample_by_population_is_weighted() {
        // Tokyo (37.4M) must be drawn far more often than Wellington (0.42M).
        let atlas = WorldAtlas::new();
        let tokyo = atlas.iter().find(|(_, m)| m.name == "Tokyo").unwrap().0;
        let wellington = atlas
            .iter()
            .find(|(_, m)| m.name == "Wellington")
            .unwrap()
            .0;
        let (mut n_tokyo, mut n_wellington) = (0u32, 0u32);
        let n = 200_000;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            let id = atlas.sample_by_population(u);
            if id == tokyo {
                n_tokyo += 1;
            } else if id == wellington {
                n_wellington += 1;
            }
        }
        assert!(n_tokyo > 50 * n_wellington.max(1));
    }

    #[test]
    fn top_by_population_is_sorted_and_filtered() {
        let atlas = WorldAtlas::new();
        let top = atlas.top_by_population(10, Some(Region::Europe));
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(atlas.metro(w[0]).population_k >= atlas.metro(w[1]).population_k);
        }
        for id in &top {
            assert_eq!(atlas.metro(*id).region, Region::Europe);
        }
        // Moscow is Europe's largest metro in the catalog.
        assert_eq!(atlas.metro(top[0]).name, "Moscow");
    }

    #[test]
    fn metro_km_is_the_direct_haversine_call_bit_for_bit() {
        let atlas = WorldAtlas::new();
        for (a, ma) in atlas.iter() {
            assert_eq!(atlas.metro_km(a, a), 0.0, "{}", ma.name);
            for (b, mb) in atlas.iter() {
                let direct = ma.location().haversine_km(&mb.location());
                assert_eq!(
                    atlas.metro_km(a, b).to_bits(),
                    direct.to_bits(),
                    "{} -> {}",
                    ma.name,
                    mb.name
                );
            }
        }
    }

    #[test]
    fn nearest_metro_finds_itself() {
        let atlas = WorldAtlas::new();
        for (id, m) in atlas.iter().step_by(17) {
            assert_eq!(atlas.nearest_metro(&m.location()), id, "{}", m.name);
        }
    }

    #[test]
    fn nearest_metro_for_offset_point() {
        let atlas = WorldAtlas::new();
        // A point 30 km east of Seattle should still resolve to Seattle.
        let seattle = atlas.iter().find(|(_, m)| m.name == "Seattle").unwrap();
        let nearby = seattle.1.location().destination(90.0, 30.0);
        assert_eq!(atlas.nearest_metro(&nearby), seattle.0);
    }
}
