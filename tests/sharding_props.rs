//! Property tests for the sharded pool's signature→shard mapping: the
//! placement must be *stable* (the same signature always routes to the
//! same shard — exact-match hits depend on it) and *uniform-ish* over a
//! realistic signature corpus (one hot shard would re-create the
//! single-lock bottleneck the sharding PR removed).

use std::sync::Arc;

use proptest::prelude::*;
use rbat::{Bat, Column, Value};
use recycler::signature::Sig;
use recycler::RecyclePool;
use rmal::Opcode;

/// A signature corpus shaped like real recycler traffic: a handful of
/// opcodes over a few shared BAT operands with scalar parameters.
fn corpus_sig(op_pick: u8, bat_pick: u8, lo: i64, hi: i64, bats: &[Arc<Bat>]) -> Sig {
    let bat = &bats[bat_pick as usize % bats.len()];
    match op_pick % 4 {
        0 => Sig::of(
            Opcode::Select,
            &[
                Value::Bat(Arc::clone(bat)),
                Value::Int(lo),
                Value::Int(hi),
                Value::Bool(true),
                Value::Bool(true),
            ],
        ),
        1 => Sig::of(
            Opcode::Uselect,
            &[Value::Bat(Arc::clone(bat)), Value::Int(lo)],
        ),
        2 => Sig::of(Opcode::Bind, &[Value::str("t"), Value::str("x")]),
        _ => Sig::of(Opcode::Kunique, &[Value::Bat(Arc::clone(bat))]),
    }
}

fn shared_bats() -> Vec<Arc<Bat>> {
    (0..4)
        .map(|i| {
            Arc::new(Bat::from_tail(Column::from_ints(
                (0..8).map(|j| i * 100 + j).collect(),
            )))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shard_of` is a pure function of the signature: repeated calls and
    /// re-built equal signatures land on the same shard, and the shard is
    /// always in range.
    #[test]
    fn shard_of_is_stable(
        op_pick in 0u8..4,
        bat_pick in 0u8..4,
        lo in -1000i64..1000,
        hi in -1000i64..1000,
    ) {
        let bats = shared_bats();
        let pool = RecyclePool::with_shards(16);
        let a = corpus_sig(op_pick, bat_pick, lo, hi, &bats);
        let b = corpus_sig(op_pick, bat_pick, lo, hi, &bats);
        prop_assert_eq!(a.clone(), b.clone());
        let s1 = pool.shard_of(&a);
        let s2 = pool.shard_of(&a);
        let s3 = pool.shard_of(&b);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(s1, s3);
        prop_assert!(s1 < pool.shard_count());
        // stability across pools of the same width
        let other = RecyclePool::with_shards(16);
        prop_assert_eq!(other.shard_of(&a), s1);
    }
}

/// Uniformity over a large scalar-parameter corpus: with 2048 distinct
/// select signatures over 16 shards, no shard may be empty and no shard
/// may hold more than 4× its fair share (FxHash is not cryptographic —
/// the bound is deliberately loose, but a constant-shard collapse or a
/// badly biased mask fails it immediately).
#[test]
fn shard_placement_is_uniform_ish() {
    let bats = shared_bats();
    let pool = RecyclePool::with_shards(16);
    let n = 2048usize;
    let mut counts = vec![0usize; pool.shard_count()];
    for i in 0..n {
        let sig = corpus_sig(
            (i % 2) as u8, // select/uselect: scalar-parameter families
            (i % 4) as u8,
            (i as i64) * 7 % 911,
            (i as i64) * 13 % 1733,
            &bats,
        );
        counts[pool.shard_of(&sig)] += 1;
    }
    let fair = n / pool.shard_count();
    for (shard, &c) in counts.iter().enumerate() {
        assert!(c > 0, "shard {shard} empty over {n} signatures: {counts:?}");
        assert!(
            c <= fair * 4,
            "shard {shard} holds {c} of {n} (fair share {fair}): {counts:?}"
        );
    }
}

/// Byte conservation across every book-moving operation: after any
/// sequence of inserts (result and operator-state artifact entries),
/// removals, evictions, rekeys with resizes (including cross-shard
/// migrations under a scoped view), compressions, spills and promotions,
/// `sum(shard_bytes) == total_bytes == raw + compressed`, and the books
/// and side indexes equal their derivation from the slabs. Rekey used to
/// paper over per-shard drift with a deferred full recount; the books
/// must now be exact at every step.
mod bytes_conservation {
    use super::*;
    use recycler::entry::Artifact;
    use recycler::signature::{ArgSig, ArtifactKind};
    use recycler::tier::{CompressedBat, SpillFile, TierState};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    use std::time::Duration;

    fn small_bat(tag: i64) -> Arc<Bat> {
        Arc::new(Bat::from_tail(Column::from_ints(
            (0..16).map(|i| tag * 16 + i).collect(),
        )))
    }

    fn artifact_sig(tag: i64) -> Sig {
        Sig::artifact(
            ArtifactKind::SortedRun,
            Opcode::Sort,
            vec![ArgSig::Scalar(Value::Int(tag))],
        )
    }

    /// A raw result entry holding a small BAT, or (`artifact`) a raw
    /// sorted-run artifact over one.
    fn mk(pool: &RecyclePool, tag: i64, bytes: usize, artifact: bool) -> recycler::PoolEntry {
        let bat = small_bat(tag);
        let (sig, result, result_id, artifact) = if artifact {
            let run = rbat::ops::sort_build(&bat, true).expect("sort build");
            (
                artifact_sig(tag),
                Value::Nil,
                None,
                Some(Artifact::SortedRun(Arc::new(run))),
            )
        } else {
            (
                Sig::of(Opcode::Select, &[Value::Int(tag)]),
                Value::Bat(Arc::clone(&bat)),
                Some(bat.id()),
                None,
            )
        };
        recycler::PoolEntry {
            id: pool.alloc_id(),
            sig,
            args: vec![Value::Int(tag)],
            result,
            result_id,
            artifact,
            tier: TierState::Raw,
            bytes,
            cpu: Duration::from_micros(1),
            family: "select",
            parents: vec![],
            base_columns: BTreeSet::new(),
            admitted_tick: 0,
            admitted_invocation: 0,
            admitted_session: 0,
            creator: (0, 0),
            last_used: AtomicU64::new(0),
            local_reuses: AtomicU64::new(0),
            global_reuses: AtomicU64::new(0),
            subsumption_uses: AtomicU64::new(0),
            time_saved_ns: AtomicU64::new(0),
            pins: AtomicU32::new(0),
            credit_returned: AtomicBool::new(false),
        }
    }

    fn conserved(pool: &RecyclePool, step: &str) -> Result<(), proptest::TestCaseError> {
        let per_shard: usize = (0..pool.shard_count()).map(|i| pool.shard_bytes(i)).sum();
        prop_assert!(
            per_shard == pool.bytes(),
            "sum(shard_bytes) {} != total_bytes {} after {}",
            per_shard,
            pool.bytes(),
            step
        );
        // the tier and artifact books against a recount of the entries
        let (mut raw, mut compressed, mut spilled, mut artifact) = (0, 0, 0, 0);
        for e in pool.snapshot_entries() {
            match &e.tier {
                TierState::Raw => raw += e.bytes,
                TierState::Compressed(_) => compressed += e.bytes,
                TierState::Spilled(t) => spilled += t.len as usize,
            }
            if e.artifact.is_some() {
                artifact += e.bytes;
            }
        }
        prop_assert!(
            pool.tier_bytes() == (raw, compressed, spilled),
            "tier books {:?} != recount {:?} after {}",
            pool.tier_bytes(),
            (raw, compressed, spilled),
            step
        );
        prop_assert!(
            pool.artifact_bytes() == artifact,
            "artifact book {} != recount {} after {}",
            pool.artifact_bytes(),
            artifact,
            step
        );
        prop_assert!(
            raw + compressed == pool.bytes(),
            "raw {} + compressed {} != total_bytes {} after {}",
            raw,
            compressed,
            pool.bytes(),
            step
        );
        if let Err(e) = pool.check_invariants() {
            return Err(proptest::TestCaseError::fail(format!("after {step}: {e}")));
        }
        Ok(())
    }

    /// A per-case spill directory, removed when the case ends (pass or
    /// fail).
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new() -> ScratchDir {
            static CASE: AtomicUsize = AtomicUsize::new(0);
            ScratchDir(std::env::temp_dir().join(format!(
                "sharding-props-spill-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            )))
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    // Default case count (64), or `PROPTEST_CASES` when set — CI's
    // release leg runs it at 1024.
    proptest! {
        #[test]
        fn bytes_conserved_under_insert_remove_evict_rekey(
            ops in prop::collection::vec((0u8..8, 0i64..64, 1usize..4000), 1..32),
        ) {
            let dir = ScratchDir::new();
            let spill = Arc::new(SpillFile::create(&dir.0, 1 << 20).expect("spill file"));
            let mut pool = RecyclePool::with_shards(8);
            pool.set_spill(Some(Arc::clone(&spill)));
            let mut live: Vec<recycler::EntryId> = Vec::new();
            let mut next_tag = 1000i64;
            for (op, tag, bytes) in ops {
                // the entry a tier or rekey step acts on
                let pick = (!live.is_empty()).then(|| live[tag as usize % live.len()]);
                match op {
                    // insert a result (0) or an artifact (1) entry
                    0 | 1 => {
                        if let recycler::Admitted::Inserted(id) =
                            pool.insert(mk(&pool, tag, bytes, op == 1), None)
                        {
                            live.push(id);
                        }
                        conserved(&pool, "insert")?;
                    }
                    // remove
                    2 => {
                        if let Some(id) = live.pop() {
                            pool.remove(id);
                        }
                        conserved(&pool, "remove")?;
                    }
                    // evict
                    3 => {
                        if let Some(&id) = live.first() {
                            if pool.remove_if_evictable(id).is_some() {
                                live.remove(0);
                            }
                        }
                        conserved(&pool, "evict")?;
                    }
                    // rekey (+ resize of a raw entry) under a scoped view
                    // — possibly a cross-shard migration of any tier
                    4 => {
                        if let Some(id) = pick {
                            next_tag += 1;
                            let (old_sig, old_result, raw) = pool
                                .entry(id, |e| (e.sig.clone(), e.result_id, e.tier.is_raw()))
                                .expect("live");
                            let new_sig = if old_sig.kind == ArtifactKind::Result {
                                Sig::of(Opcode::Select, &[Value::Int(next_tag)])
                            } else {
                                artifact_sig(next_tag)
                            };
                            let shard = pool.shard_of(&old_sig);
                            let mut view = pool.scoped_view(&[shard]);
                            if let Some(e) = view.get_mut(id) {
                                e.sig = new_sig;
                            }
                            // propagation only resizes raw entries
                            if raw {
                                view.set_bytes(id, bytes);
                            }
                            view.rekey(id, &old_sig, old_result);
                            drop(view);
                            conserved(&pool, "rekey")?;
                        }
                    }
                    // compress a raw entry in place (artifacts and blobs
                    // that would not shrink the charge are refused)
                    5 => {
                        if let Some(id) = pick {
                            let bat = pool
                                .entry(id, |e| e.result.as_bat().cloned())
                                .flatten()
                                .unwrap_or_else(|| small_bat(tag));
                            pool.demote_compress(id, Arc::new(CompressedBat::compress(&bat)));
                            conserved(&pool, "demote_compress")?;
                        }
                    }
                    // spill a compressed entry
                    6 => {
                        let blob = pick.and_then(|id| {
                            pool.entry(id, |e| match &e.tier {
                                TierState::Compressed(b) => Some(Arc::clone(b)),
                                _ => None,
                            })
                            .flatten()
                            .map(|b| (id, b))
                        });
                        if let Some((id, blob)) = blob {
                            let ticket = spill.append(blob.as_bytes()).expect("spill append");
                            pool.demote_spill(id, &blob, ticket);
                            conserved(&pool, "demote_spill")?;
                        }
                    }
                    // promote a demoted entry back to raw
                    _ => {
                        if let Some(id) = pick {
                            pool.promote(id, Value::Bat(small_bat(tag)), bytes);
                            conserved(&pool, "promote")?;
                        }
                    }
                }
            }
            // drain everything: the books must return to zero and every
            // spill record must be retired
            for id in live {
                pool.remove(id);
            }
            prop_assert!(pool.bytes() == 0, "drained pool must hold zero bytes");
            prop_assert!(pool.tier_bytes() == (0, 0, 0), "drained tier books must be zero");
            prop_assert!(spill.live_bytes() == 0, "drained pool must retire every spill record");
            conserved(&pool, "drain")?;
        }
    }
}

/// The same corpus pushed through a live pool: entries must be resident in
/// exactly the shard `shard_of` names (the invariant checker verifies
/// placement), and every signature must remain findable.
#[test]
fn inserted_corpus_lands_on_its_shards() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
    use std::time::Duration;

    let bats = shared_bats();
    let pool = RecyclePool::with_shards(8);
    let mut sigs = Vec::new();
    for i in 0..128usize {
        let sig = corpus_sig(0, (i % 4) as u8, i as i64, (i as i64) + 50, &bats);
        if sigs.contains(&sig) {
            continue;
        }
        let entry = recycler::PoolEntry {
            id: pool.alloc_id(),
            sig: sig.clone(),
            args: vec![],
            result: Value::Int(i as i64),
            result_id: None,
            artifact: None,
            tier: recycler::tier::TierState::Raw,
            bytes: 10,
            cpu: Duration::from_micros(1),
            family: "select",
            parents: vec![],
            base_columns: BTreeSet::new(),
            admitted_tick: 0,
            admitted_invocation: 0,
            admitted_session: 0,
            creator: (0, 0),
            last_used: AtomicU64::new(0),
            local_reuses: AtomicU64::new(0),
            global_reuses: AtomicU64::new(0),
            subsumption_uses: AtomicU64::new(0),
            time_saved_ns: AtomicU64::new(0),
            pins: AtomicU32::new(0),
            credit_returned: AtomicBool::new(false),
        };
        assert!(pool.insert(entry, None).inserted());
        sigs.push(sig);
    }
    for sig in &sigs {
        assert!(pool.lookup(sig).is_some(), "sig must stay findable");
    }
    pool.check_invariants().expect("placement invariant");
}
