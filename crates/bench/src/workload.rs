//! Hotel-schema workload generator (Figure 2 at scale).
//!
//! The paper defers experimental evaluation; this generator provides the
//! testbed it would have needed: seeded, deterministic instances of the
//! hotel-reservation schema with tunable size and selectivity knobs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xvc_core::paper_fixtures::figure2_database;
use xvc_rel::{parse_query, Database, Value};
use xvc_view::{SchemaTree, ViewNode};

/// Knobs for one generated instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of metro areas.
    pub metros: usize,
    /// Hotels per metro.
    pub hotels_per_metro: usize,
    /// Fraction of hotels with `starrating > 4` (the Figure 1 view's
    /// hotel-level selectivity).
    pub luxury_fraction: f64,
    /// Guest rooms per hotel.
    pub rooms_per_hotel: usize,
    /// Conference rooms per hotel.
    pub conf_rooms_per_hotel: usize,
    /// Distinct start dates in the availability horizon.
    pub dates: usize,
    /// Availability records per guest room.
    pub avail_per_room: usize,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl WorkloadConfig {
    /// A linear scale family: `scale(1)` ≈ 600 rows, `scale(s)` grows
    /// proportionally in metros (and therefore everything beneath them).
    pub fn scale(s: usize) -> Self {
        WorkloadConfig {
            metros: 2 * s.max(1),
            hotels_per_metro: 8,
            luxury_fraction: 0.5,
            rooms_per_hotel: 5,
            conf_rooms_per_hotel: 2,
            dates: 5,
            avail_per_room: 3,
            seed: 0x5157_2003,
        }
    }

    /// Same sizes, different hotel-level selectivity.
    pub fn with_luxury_fraction(mut self, f: f64) -> Self {
        self.luxury_fraction = f;
        self
    }

    /// Approximate total row count of the generated instance.
    pub fn approx_rows(&self) -> usize {
        let hotels = self.metros * self.hotels_per_metro;
        self.metros
            + hotels * (1 + self.rooms_per_hotel + self.conf_rooms_per_hotel)
            + hotels * self.rooms_per_hotel * self.avail_per_room
    }
}

/// A view over the generated schema that every key reaches: hotel 1
/// (`hotelid` is its `PRIMARY KEY`), with its metro area and its chain,
/// each fetched by primary key through the hotel's foreign key. The static
/// analysis bounds its document (at most three elements), and so every
/// stylesheet composed over it, which gives the document-bound gates a
/// finite bound to check.
pub fn keyed_hotel_view() -> SchemaTree {
    let q = |sql: &str| parse_query(sql).expect("static SQL is well-formed");
    let mut v = SchemaTree::new();
    let hotel = v
        .add_root_node(ViewNode::new(
            1,
            "hotel",
            "h",
            q("SELECT * FROM hotel WHERE hotelid = 1"),
        ))
        .expect("valid tag");
    v.add_child(
        hotel,
        ViewNode::new(
            2,
            "metro",
            "m",
            q("SELECT * FROM metroarea WHERE metroid = $h.metro_id"),
        ),
    )
    .expect("valid tag");
    v.add_child(
        hotel,
        ViewNode::new(
            3,
            "chain",
            "c",
            q("SELECT * FROM hotelchain WHERE chainid = $h.chain_id"),
        ),
    )
    .expect("valid tag");
    v
}

/// Generates a database instance for the given config.
pub fn generate(cfg: &WorkloadConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = figure2_database();
    let i = Value::Int;
    let s = |x: String| Value::Str(x);

    db.insert(
        "hotelchain",
        vec![i(1), s("Grand Chain".into()), s("IL".into())],
    )
    .expect("schema matches");

    let mut hotel_id = 0i64;
    let mut room_id = 0i64;
    let mut conf_id = 0i64;
    let mut avail_id = 0i64;

    for m in 0..cfg.metros {
        let metro_id = m as i64 + 1;
        db.insert(
            "metroarea",
            vec![i(metro_id), s(format!("metro{metro_id}"))],
        )
        .expect("schema matches");
        for h in 0..cfg.hotels_per_metro {
            hotel_id += 1;
            let luxury = (h as f64 + 0.5) / cfg.hotels_per_metro as f64 <= cfg.luxury_fraction;
            let stars = if luxury { 5 } else { rng.gen_range(1..=4) };
            db.insert(
                "hotel",
                vec![
                    i(hotel_id),
                    s(format!("hotel{hotel_id}")),
                    i(stars),
                    i(1),
                    i(metro_id),
                    i(1),
                    s(format!("city{metro_id}")),
                    s(if rng.gen_bool(0.5) { "yes" } else { "no" }.into()),
                    s(if rng.gen_bool(0.5) { "yes" } else { "no" }.into()),
                ],
            )
            .expect("schema matches");
            for r in 0..cfg.rooms_per_hotel {
                room_id += 1;
                db.insert(
                    "guestroom",
                    vec![
                        i(room_id),
                        i(hotel_id),
                        i(100 + r as i64),
                        s(if rng.gen_bool(0.3) { "suite" } else { "king" }.into()),
                        i(rng.gen_range(80..400)),
                    ],
                )
                .expect("schema matches");
                for _ in 0..cfg.avail_per_room {
                    avail_id += 1;
                    let d = rng.gen_range(0..cfg.dates.max(1)) as i64;
                    db.insert(
                        "availability",
                        vec![
                            i(avail_id),
                            i(room_id),
                            s(format!("2003-06-{:02}", 9 + d)),
                            s(format!("2003-06-{:02}", 12 + d)),
                            i(rng.gen_range(90..300)),
                        ],
                    )
                    .expect("schema matches");
                }
            }
            for c in 0..cfg.conf_rooms_per_hotel {
                conf_id += 1;
                db.insert(
                    "confroom",
                    vec![
                        i(conf_id),
                        i(hotel_id),
                        i(c as i64 + 1),
                        i(rng.gen_range(50..600)),
                        i(rng.gen_range(300..1500)),
                    ],
                )
                .expect("schema matches");
            }
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::scale(1);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn scale_grows_linearly() {
        let r1 = generate(&WorkloadConfig::scale(1)).total_rows();
        let r4 = generate(&WorkloadConfig::scale(4)).total_rows();
        assert!(r4 > 3 * r1 && r4 < 5 * r1, "r1={r1} r4={r4}");
    }

    #[test]
    fn approx_rows_matches_actual() {
        let cfg = WorkloadConfig::scale(2);
        let actual = generate(&cfg).total_rows();
        // approx_rows omits only the single hotelchain row.
        assert_eq!(cfg.approx_rows() + 1, actual);
    }

    #[test]
    fn luxury_fraction_controls_selectivity() {
        let db = generate(&WorkloadConfig::scale(1).with_luxury_fraction(0.25));
        let lux = xvc_rel::eval_query(
            &db,
            &xvc_rel::parse_query("SELECT * FROM hotel WHERE starrating > 4").unwrap(),
            &Default::default(),
        )
        .unwrap()
        .len();
        let total = db.table("hotel").unwrap().len();
        let f = lux as f64 / total as f64;
        assert!((f - 0.25).abs() < 0.05, "fraction {f}");
    }

    #[test]
    fn generated_instance_publishes_figure1() {
        let db = generate(&WorkloadConfig::scale(1));
        let v = xvc_core::paper_fixtures::figure1_view();
        let stats = xvc_view::Engine::new(&v)
            .session()
            .publish(&db)
            .unwrap()
            .stats;
        assert!(stats.elements > 50);
    }
}
