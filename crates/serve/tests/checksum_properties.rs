//! The block-incremental table checksum. `TableState::checksum` keeps one
//! CRC per 64-slot block and re-CRCs only the blocks an apply wrote; after
//! any sequence of cut slices, logged replays and installs its value must
//! still equal one CRC-32 pass over the slot bits in little-endian order —
//! the value WAL seals, checkpoint manifests and snapshot checksums carry.

use proptest::prelude::*;
use rand::{Rng, SeedableRng, SmallRng};

use invector_core::exec::{ExecPolicy, ExecVariant, Partition};
use invector_core::tune::EpochPolicy;
use invector_serve::table::TableState;
use invector_serve::{OpKind, StreamKind, TableData, TableSpec, Update, ValueKind};

/// Flat lengths around the 64-slot block edge, plus one past a multiple.
const LENGTHS: [usize; 5] = [1, 63, 64, 65, 4097];

fn specs() -> Vec<TableSpec> {
    let mut specs = Vec::new();
    for len in LENGTHS {
        for op in [OpKind::Add, OpKind::Min, OpKind::Max] {
            specs.push(TableSpec::f32("f", op, len));
            specs.push(TableSpec::i32("i", op, len));
        }
    }
    specs.push(TableSpec::window("window", OpKind::Add, 5, 3, 4, false));
    specs.push(TableSpec::window("timed", OpKind::Max, 4, 3, 2, true));
    specs.push(TableSpec::pagerank("ranks", 10, 3));
    specs.push(TableSpec::wcc("components", 10));
    specs
}

/// The reference: one CRC-32 pass over the little-endian slot bits.
fn full_crc(table: &TableState) -> u32 {
    let bytes: Vec<u8> = table.data().to_bits().iter().flat_map(|b| b.to_le_bytes()).collect();
    invector_replog::crc32(&bytes)
}

fn random_policy(rng: &mut SmallRng) -> ExecPolicy {
    let partition =
        if rng.gen_bool(0.5) { Partition::OwnerComputes } else { Partition::Privatized };
    let variant =
        [ExecVariant::Serial, ExecVariant::Invec, ExecVariant::Adaptive][rng.gen_range(0..3usize)];
    ExecPolicy::with_threads(rng.gen_range(1..=3))
        .partition(partition)
        .variant(variant)
        .deterministic(true)
}

/// An f32 payload with signed zeros well represented: a privatized fold of
/// `+0.0` over a `-0.0` slot changes its bits without its key being named.
fn f32_value(rng: &mut SmallRng) -> f32 {
    match rng.gen_range(0..4) {
        0 => -0.0,
        1 => 0.0,
        _ => rng.gen_range(-4.0f32..4.0),
    }
}

/// One valid event for `spec` at `seq`; `clock` is a timed window's bucket.
fn random_update(spec: &TableSpec, seq: u64, clock: &mut u32, rng: &mut SmallRng) -> Update {
    let (idx, bits) = match spec.stream {
        StreamKind::Flat => {
            let idx = rng.gen_range(0..spec.len as u32);
            return match spec.kind {
                ValueKind::F32 => Update::f32(seq, idx, f32_value(rng)),
                ValueKind::I32 => Update::i32(seq, idx, rng.gen_range(-9..9)),
            };
        }
        StreamKind::Window { keys, timed, .. } => {
            if timed && rng.gen_bool(0.1) {
                *clock += rng.gen_range(1..3);
                invector_streamkit::window_advance(keys, *clock)
            } else {
                invector_streamkit::window_data(rng.gen_range(0..keys), rng.gen_range(-99..99))
            }
        }
        StreamKind::GraphPageRank { vertices, .. } | StreamKind::GraphWcc { vertices } => {
            let (src, dst) = (rng.gen_range(0..vertices), rng.gen_range(0..vertices));
            invector_streamkit::edge_event(src, dst, rng.gen_bool(0.7))
        }
    };
    Update { seq, idx, bits }
}

/// Contents to install: random slot bits (signed zeros included) for flat
/// tables; for stream tables, the state of a donor table fed its own
/// stream, since an engine rebuilds its caches from a valid slot image.
fn random_contents(spec: &TableSpec, rng: &mut SmallRng) -> TableData {
    if spec.stream.is_flat() {
        return match spec.kind {
            ValueKind::F32 => TableData::F32((0..spec.len).map(|_| f32_value(rng)).collect()),
            ValueKind::I32 => TableData::I32((0..spec.len).map(|_| rng.gen()).collect()),
        };
    }
    let mut donor = TableState::new(spec.clone(), EpochPolicy::new(ExecPolicy::default(), 64));
    let mut clock = 0;
    let n = rng.gen_range(1..200u64);
    for seq in 0..n {
        donor.absorb(random_update(spec, seq, &mut clock, rng));
    }
    donor.cut_and_apply(64, true, &ExecPolicy::default());
    donor.data().clone()
}

/// Drives one table through `steps` random cuts, logged replays and
/// installs, checking the checksum after each.
fn exercise(spec: &TableSpec, steps: usize, rng: &mut SmallRng) {
    let quantum = rng.gen_range(1..=600);
    let mut table = TableState::new(spec.clone(), EpochPolicy::new(random_policy(rng), quantum));
    prop_assert_eq!(table.checksum(), full_crc(&table), "fresh {:?}", spec);
    let mut next_seq = 0u64;
    let mut clock = 0u32;
    for step in 0..steps {
        match rng.gen_range(0..3) {
            0 => {
                for _ in 0..rng.gen_range(0..800) {
                    table.absorb(random_update(spec, next_seq, &mut clock, rng));
                    next_seq += 1;
                }
                let quantum = rng.gen_range(1..=600);
                table.cut_and_apply(quantum, rng.gen_bool(0.5), &random_policy(rng));
            }
            1 => {
                table.cut_and_apply(1, true, &ExecPolicy::default());
                let slice: Vec<Update> = (0..rng.gen_range(1..600))
                    .map(|i| random_update(spec, next_seq + i, &mut clock, rng))
                    .collect();
                next_seq += slice.len() as u64;
                table.apply_logged(&slice).expect("logged slice applies");
            }
            _ => {
                table.cut_and_apply(1, true, &ExecPolicy::default());
                next_seq += rng.gen_range(0..10);
                table.install(random_contents(spec, rng), next_seq).expect("install");
            }
        }
        prop_assert_eq!(table.checksum(), full_crc(&table), "{:?} after step {}", spec, step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_checksum_equals_a_full_crc_pass(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for spec in specs() {
            exercise(&spec, 8, &mut rng);
        }
    }
}
