//! Seeded operation streams. Every input the system receives is generated
//! here from the run's `--seed`; the same seed gives the same stream.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbat::{Catalog, Value};
use recycling::Update;
use rmal::Program;

/// Derive an independent sub-seed (splitmix64 finaliser over the pair).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One query: template index plus parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryOp {
    /// Index into the workload's template list.
    pub template: usize,
    /// Parameter values.
    pub params: Vec<Value>,
}

/// The TPC-H mixed-batch stream: an endless sequence of
/// `tpch::mixed_batch(&MIXED_QUERIES, 20, ..)` batches (200 queries each),
/// batch `k` drawn from `mix(seed, k)`.
#[derive(Debug)]
pub struct TpchStream {
    seed: u64,
    batch: u64,
    pending: std::vec::IntoIter<tpch::BatchItem>,
}

impl TpchStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> TpchStream {
        TpchStream {
            seed,
            batch: 0,
            pending: Vec::new().into_iter(),
        }
    }

    /// The stream's templates (unprepared), indexed by
    /// [`QueryOp::template`].
    pub fn templates() -> Vec<Program> {
        tpch::workload::MIXED_QUERIES
            .iter()
            .map(|&n| tpch::query(n).template)
            .collect()
    }
}

impl Iterator for TpchStream {
    type Item = QueryOp;

    fn next(&mut self) -> Option<QueryOp> {
        loop {
            if let Some(item) = self.pending.next() {
                return Some(QueryOp {
                    template: item.query_idx,
                    params: item.params,
                });
            }
            let (_, items) = tpch::mixed_batch(
                &tpch::workload::MIXED_QUERIES,
                20,
                mix(self.seed, self.batch),
            );
            self.batch += 1;
            self.pending = items.into_iter();
        }
    }
}

/// The §7.4 update block generator: per block, `insert_block(.., 8)` and
/// `delete_block(.., 4)` drawn from one seeded RNG against the catalog
/// the block applies to.
#[derive(Debug)]
pub struct UpdateStream {
    rng: SmallRng,
}

impl UpdateStream {
    /// The update stream for `seed`.
    pub fn new(seed: u64) -> UpdateStream {
        UpdateStream {
            rng: SmallRng::seed_from_u64(mix(seed, 0x000D_A7E5)),
        }
    }

    /// Inserts of one block: new `orders` then new `lineitem` rows.
    pub fn inserts(&mut self, catalog: &Catalog) -> [Update; 2] {
        let block = tpch::insert_block(catalog, &mut self.rng, 8);
        [
            Update::to("orders").insert(block.order_rows),
            Update::to("lineitem").insert(block.lineitem_rows),
        ]
    }

    /// Deletes of one block, drawn after its inserts committed: `lineitem`
    /// rows then their `orders`.
    pub fn deletes(&mut self, catalog: &Catalog) -> [Update; 2] {
        let block = tpch::delete_block(catalog, &mut self.rng, 4);
        [
            Update::to("lineitem").delete(block.delete_lineitems),
            Update::to("orders").delete(block.delete_orders),
        ]
    }
}

/// Template names the SkyServer stream uses over the wire, indexed like
/// the templates `skyserver::sample_log` returns.
pub const SKY_TEMPLATES: [&str; 3] = ["nearby", "doc", "point"];

/// The SkyServer log stream of one client: an endless sequence of
/// `skyserver::sample_log(1000, ..)` samples, sample `k` drawn from
/// `mix(mix(seed, client), k)`.
#[derive(Debug)]
pub struct SkyStream {
    seed: u64,
    batch: u64,
    pending: std::vec::IntoIter<skyserver::LogItem>,
}

impl SkyStream {
    /// The stream of client `client` for `seed`.
    pub fn new(seed: u64, client: u64) -> SkyStream {
        SkyStream {
            seed: mix(seed, 0x5C7 + client),
            batch: 0,
            pending: Vec::new().into_iter(),
        }
    }

    /// The stream's templates (unprepared), indexed by
    /// [`QueryOp::template`] and named by [`SKY_TEMPLATES`].
    pub fn templates() -> Vec<Program> {
        skyserver::sample_log(0, 0).0
    }
}

impl Iterator for SkyStream {
    type Item = QueryOp;

    fn next(&mut self) -> Option<QueryOp> {
        loop {
            if let Some(item) = self.pending.next() {
                return Some(QueryOp {
                    template: item.query_idx,
                    params: item.params,
                });
            }
            let (_, items) = skyserver::sample_log(1000, mix(self.seed, self.batch));
            self.batch += 1;
            self.pending = items.into_iter();
        }
    }
}
