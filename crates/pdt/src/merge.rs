//! Merge plans: compact scripts that apply PDT differences during scans.
//!
//! "Their primary goal is fast merging of differences in a scan, which
//! happens for each and every query" (§2). A [`MergeStep`] sequence tells
//! the scan operator, in output order, which stable row ranges to copy
//! through untouched (the overwhelmingly common case), which rows to skip
//! (deletes), which rows need column patches (modifies) and where inserted
//! tuples appear. Identification is purely positional — no keys.
//!
//! [`compose`] stacks plans: the paper's Read-PDT / Write-PDT / Trans-PDT
//! layering becomes `compose(compose(read_plan, write_plan), trans_plan)`,
//! yielding a single plan in stable-table coordinates.

use std::sync::Arc;

use vectorh_common::Value;

use crate::tree::{self, Pdt, Update};

/// One step of a merge plan. Steps are emitted in output (RID) order;
/// `CopyStable`/`SkipStable`/`ModifyStable` consume stable rows in ascending
/// SID order and jointly cover every stable row exactly once.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeStep {
    /// Pass `count` stable rows starting at `from_sid` through unchanged.
    CopyStable { from_sid: u64, count: u64 },
    /// Drop `count` stable rows starting at `from_sid` (deleted).
    SkipStable { from_sid: u64, count: u64 },
    /// Emit stable row `sid` with the given column patches applied.
    ModifyStable { sid: u64, mods: Vec<(usize, Value)> },
    /// Emit an inserted tuple.
    EmitInsert { tag: u64, values: Arc<Vec<Value>> },
}

impl MergeStep {
    /// Output rows this step produces.
    pub fn emits(&self) -> u64 {
        match self {
            MergeStep::CopyStable { count, .. } => *count,
            MergeStep::SkipStable { .. } => 0,
            MergeStep::ModifyStable { .. } => 1,
            MergeStep::EmitInsert { .. } => 1,
        }
    }

    /// Stable rows this step consumes.
    pub fn consumes(&self) -> u64 {
        match self {
            MergeStep::CopyStable { count, .. } => *count,
            MergeStep::SkipStable { count, .. } => *count,
            MergeStep::ModifyStable { .. } => 1,
            MergeStep::EmitInsert { .. } => 0,
        }
    }

    /// PDT entries that express this step: one per deleted row, per
    /// patched column and per inserted row.
    pub fn pdt_entries(&self) -> u64 {
        match self {
            MergeStep::CopyStable { .. } => 0,
            MergeStep::SkipStable { count, .. } => *count,
            MergeStep::ModifyStable { mods, .. } => mods.len() as u64,
            MergeStep::EmitInsert { .. } => 1,
        }
    }

    /// The footprint of those entries, as [`Pdt::mem_bytes`] counts it.
    pub fn pdt_bytes(&self) -> usize {
        match self {
            MergeStep::CopyStable { .. } => 0,
            MergeStep::SkipStable { count, .. } => *count as usize * tree::DELETE_BYTES,
            MergeStep::ModifyStable { mods, .. } => {
                mods.iter().map(|(_, v)| tree::modify_bytes(v)).sum()
            }
            MergeStep::EmitInsert { values, .. } => tree::insert_bytes(values),
        }
    }
}

impl Pdt {
    /// Build the merge plan of this PDT over a below-image of `stable_len`
    /// rows.
    pub fn merge_plan(&self, stable_len: u64) -> Vec<MergeStep> {
        let mut out = Vec::new();
        let mut copy_start = 0u64; // next stable sid not yet covered
        let push_copy = |out: &mut Vec<MergeStep>, from: u64, to: u64| {
            if to > from {
                out.push(MergeStep::CopyStable {
                    from_sid: from,
                    count: to - from,
                });
            }
        };
        let entries: Vec<_> = self.entries().collect();
        let mut i = 0usize;
        while i < entries.len() {
            let sid = entries[i].sid;
            // Collect the whole group (groups are contiguous in entry order).
            let mut inserts: Vec<(u64, &Arc<Vec<Value>>)> = Vec::new();
            let mut mods: Vec<(usize, Value)> = Vec::new();
            let mut deleted = false;
            while i < entries.len() && entries[i].sid == sid {
                match &entries[i].upd {
                    Update::Insert { tag, values } => inserts.push((*tag, values)),
                    Update::Modify { col, value } => mods.push((*col, value.clone())),
                    Update::Delete => deleted = true,
                }
                i += 1;
            }
            push_copy(&mut out, copy_start, sid.min(stable_len));
            for (tag, values) in inserts {
                out.push(MergeStep::EmitInsert {
                    tag,
                    values: values.clone(),
                });
            }
            if sid < stable_len {
                if deleted {
                    // Coalesce with a directly preceding skip run.
                    if let Some(MergeStep::SkipStable { from_sid, count }) = out.last_mut() {
                        if *from_sid + *count == sid {
                            *count += 1;
                            copy_start = sid + 1;
                            continue;
                        }
                    }
                    out.push(MergeStep::SkipStable {
                        from_sid: sid,
                        count: 1,
                    });
                    copy_start = sid + 1;
                } else if !mods.is_empty() {
                    out.push(MergeStep::ModifyStable { sid, mods });
                    copy_start = sid + 1;
                } else {
                    copy_start = sid;
                }
            } else {
                copy_start = stable_len;
            }
        }
        push_copy(&mut out, copy_start, stable_len);
        out
    }
}

/// Apply a merge plan to materialized rows (reference implementation; the
/// vectorized engine applies plans column-at-a-time instead).
pub fn apply_plan(plan: &[MergeStep], stable_rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for step in plan {
        match step {
            MergeStep::CopyStable { from_sid, count } => {
                for sid in *from_sid..*from_sid + *count {
                    out.push(stable_rows[sid as usize].clone());
                }
            }
            MergeStep::SkipStable { .. } => {}
            MergeStep::ModifyStable { sid, mods } => {
                let mut row = stable_rows[*sid as usize].clone();
                for (c, v) in mods {
                    row[*c] = v.clone();
                }
                out.push(row);
            }
            MergeStep::EmitInsert { values, .. } => out.push(values.to_vec()),
        }
    }
    out
}

/// Compose two merge plans: `upper` consumes the row stream `lower`
/// produces; the result is a single plan in `lower`'s stable coordinates.
pub fn compose(lower: &[MergeStep], upper: &[MergeStep]) -> Vec<MergeStep> {
    // A cursor over the lower plan that can hand out rows one piece at a
    // time. Pieces are either stable-row runs or single inserted rows.
    struct Cursor<'a> {
        steps: &'a [MergeStep],
        idx: usize,
        /// Offset into the current step's emitted rows (for CopyStable runs).
        off: u64,
        out: Vec<MergeStep>,
    }

    impl<'a> Cursor<'a> {
        /// Emit lower SkipStable steps that come before the next
        /// row-producing step (they are position-transparent).
        fn drain_skips(&mut self) {
            while let Some(MergeStep::SkipStable { from_sid, count }) = self.steps.get(self.idx) {
                self.out.push(MergeStep::SkipStable {
                    from_sid: *from_sid,
                    count: *count,
                });
                self.idx += 1;
            }
        }

        /// Take up to `n` output rows, passing them through (keep=true) or
        /// dropping them (keep=false). Returns rows actually taken.
        fn take(&mut self, n: u64, keep: bool) -> u64 {
            let mut taken = 0u64;
            while taken < n {
                self.drain_skips();
                let Some(step) = self.steps.get(self.idx) else {
                    break;
                };
                match step {
                    MergeStep::CopyStable { from_sid, count } => {
                        let avail = count - self.off;
                        let grab = avail.min(n - taken);
                        let start = from_sid + self.off;
                        if keep {
                            // Coalesce with a preceding copy run.
                            if let Some(MergeStep::CopyStable {
                                from_sid: f,
                                count: c,
                            }) = self.out.last_mut()
                            {
                                if *f + *c == start {
                                    *c += grab;
                                } else {
                                    self.out.push(MergeStep::CopyStable {
                                        from_sid: start,
                                        count: grab,
                                    });
                                }
                            } else {
                                self.out.push(MergeStep::CopyStable {
                                    from_sid: start,
                                    count: grab,
                                });
                            }
                        } else {
                            self.out.push(MergeStep::SkipStable {
                                from_sid: start,
                                count: grab,
                            });
                        }
                        self.off += grab;
                        taken += grab;
                        if self.off == *count {
                            self.idx += 1;
                            self.off = 0;
                        }
                    }
                    MergeStep::ModifyStable { sid, mods } => {
                        if keep {
                            self.out.push(MergeStep::ModifyStable {
                                sid: *sid,
                                mods: mods.clone(),
                            });
                        } else {
                            self.out.push(MergeStep::SkipStable {
                                from_sid: *sid,
                                count: 1,
                            });
                        }
                        self.idx += 1;
                        taken += 1;
                    }
                    MergeStep::EmitInsert { tag, values } => {
                        if keep {
                            self.out.push(MergeStep::EmitInsert {
                                tag: *tag,
                                values: values.clone(),
                            });
                        }
                        // dropped inserts vanish entirely
                        self.idx += 1;
                        taken += 1;
                    }
                    MergeStep::SkipStable { .. } => unreachable!("drained above"),
                }
            }
            taken
        }

        /// Take exactly one row and apply column patches to it.
        fn take_modified(&mut self, mods: &[(usize, Value)]) {
            self.drain_skips();
            let Some(step) = self.steps.get(self.idx) else {
                return;
            };
            match step {
                MergeStep::CopyStable { from_sid, count } => {
                    let sid = from_sid + self.off;
                    self.out.push(MergeStep::ModifyStable {
                        sid,
                        mods: mods.to_vec(),
                    });
                    self.off += 1;
                    if self.off == *count {
                        self.idx += 1;
                        self.off = 0;
                    }
                }
                MergeStep::ModifyStable {
                    sid,
                    mods: lower_mods,
                } => {
                    // Upper mods override lower mods per column.
                    let mut merged = lower_mods.clone();
                    for (c, v) in mods {
                        if let Some(slot) = merged.iter_mut().find(|(mc, _)| mc == c) {
                            slot.1 = v.clone();
                        } else {
                            merged.push((*c, v.clone()));
                        }
                    }
                    self.out.push(MergeStep::ModifyStable {
                        sid: *sid,
                        mods: merged,
                    });
                    self.idx += 1;
                }
                MergeStep::EmitInsert { tag, values } => {
                    let mut patched = values.clone();
                    let row = Arc::make_mut(&mut patched);
                    for (c, v) in mods {
                        row[*c] = v.clone();
                    }
                    self.out.push(MergeStep::EmitInsert {
                        tag: *tag,
                        values: patched,
                    });
                    self.idx += 1;
                }
                MergeStep::SkipStable { .. } => unreachable!("drained above"),
            }
        }
    }

    let mut cur = Cursor {
        steps: lower,
        idx: 0,
        off: 0,
        out: Vec::new(),
    };
    for step in upper {
        match step {
            MergeStep::CopyStable { count, .. } => {
                cur.take(*count, true);
            }
            MergeStep::SkipStable { count, .. } => {
                cur.take(*count, false);
            }
            MergeStep::ModifyStable { mods, .. } => {
                cur.take_modified(mods);
            }
            MergeStep::EmitInsert { tag, values } => {
                cur.out.push(MergeStep::EmitInsert {
                    tag: *tag,
                    values: values.clone(),
                });
            }
        }
    }
    // Any trailing lower skips.
    cur.drain_skips();
    cur.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;

    fn v(i: i64) -> Vec<Value> {
        vec![Value::I64(i), Value::I64(i * 10)]
    }

    fn stable(n: u64) -> Vec<Vec<Value>> {
        (0..n as i64).map(v).collect()
    }

    #[test]
    fn empty_pdt_single_copy() {
        let plan = Pdt::new().merge_plan(10);
        assert_eq!(
            plan,
            vec![MergeStep::CopyStable {
                from_sid: 0,
                count: 10
            }]
        );
    }

    #[test]
    fn plan_matches_direct_materialization() {
        let mut pdt = Pdt::new();
        pdt.insert_at(3, v(100), 1, 10).unwrap();
        pdt.delete_at(7, 10).unwrap();
        pdt.modify_at(0, 1, Value::I64(-5), 10).unwrap();
        let plan = pdt.merge_plan(10);
        let rows = apply_plan(&plan, &stable(10));
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0][1], Value::I64(-5));
        assert_eq!(rows[3][0], Value::I64(100));
        // row 6 (stable sid 6) deleted; stable 7 is gone
        assert!(!rows
            .iter()
            .any(|r| r[0] == Value::I64(6) && r[1] == Value::I64(60)));
    }

    #[test]
    fn contiguous_deletes_coalesce() {
        let mut pdt = Pdt::new();
        for _ in 0..4 {
            pdt.delete_at(2, 10).unwrap();
        }
        let plan = pdt.merge_plan(10);
        assert_eq!(
            plan,
            vec![
                MergeStep::CopyStable {
                    from_sid: 0,
                    count: 2
                },
                MergeStep::SkipStable {
                    from_sid: 2,
                    count: 4
                },
                MergeStep::CopyStable {
                    from_sid: 6,
                    count: 4
                },
            ]
        );
    }

    #[test]
    fn pure_inserts_do_not_break_copy_runs_needlessly() {
        let mut pdt = Pdt::new();
        pdt.insert_at(5, v(99), 1, 10).unwrap();
        let plan = pdt.merge_plan(10);
        assert_eq!(
            plan,
            vec![
                MergeStep::CopyStable {
                    from_sid: 0,
                    count: 5
                },
                MergeStep::EmitInsert {
                    tag: 1,
                    values: v(99).into()
                },
                MergeStep::CopyStable {
                    from_sid: 5,
                    count: 5
                },
            ]
        );
    }

    #[test]
    fn appends_at_end() {
        let mut pdt = Pdt::new();
        pdt.insert_at(10, v(100), 1, 10).unwrap();
        let plan = pdt.merge_plan(10);
        assert_eq!(
            plan.last().unwrap(),
            &MergeStep::EmitInsert {
                tag: 1,
                values: v(100).into()
            }
        );
        assert_eq!(apply_plan(&plan, &stable(10)).len(), 11);
    }

    #[test]
    fn compose_identity() {
        let mut pdt = Pdt::new();
        pdt.insert_at(2, v(1), 1, 5).unwrap();
        let plan = pdt.merge_plan(5);
        let id = Pdt::new().merge_plan(6); // upper identity over 6-row image
        let composed = compose(&plan, &id);
        assert_eq!(
            apply_plan(&composed, &stable(5)),
            apply_plan(&plan, &stable(5))
        );
    }

    #[test]
    fn compose_upper_delete_of_lower_insert() {
        let mut lower = Pdt::new();
        lower.insert_at(2, v(1), 1, 5).unwrap(); // image: 6 rows
        let mut upper = Pdt::new();
        upper.delete_at(2, 6).unwrap(); // deletes the inserted row
        let composed = compose(&lower.merge_plan(5), &upper.merge_plan(6));
        let rows = apply_plan(&composed, &stable(5));
        assert_eq!(rows, stable(5)); // net effect: nothing
    }

    #[test]
    fn compose_upper_modify_of_lower_modify_overrides() {
        let mut lower = Pdt::new();
        lower.modify_at(3, 0, Value::I64(111), 5).unwrap();
        lower.modify_at(3, 1, Value::I64(222), 5).unwrap();
        let mut upper = Pdt::new();
        upper.modify_at(3, 0, Value::I64(999), 5).unwrap();
        let composed = compose(&lower.merge_plan(5), &upper.merge_plan(5));
        let rows = apply_plan(&composed, &stable(5));
        assert_eq!(rows[3][0], Value::I64(999)); // upper wins col 0
        assert_eq!(rows[3][1], Value::I64(222)); // lower's col 1 survives
    }

    /// Random two-layer stacks: composition must equal sequential
    /// application.
    fn run_compose_model(seed: u64, stable_n: u64, ops: usize) {
        let mut rng = SplitMix64::new(seed);
        let mut lower = Pdt::new();
        let mut tag = 0u64;
        let mut random_ops = |pdt: &mut Pdt, base: u64, n: usize, tag: &mut u64| {
            for _ in 0..n {
                let image = pdt.image_len(base);
                match rng.next_bounded(3) {
                    0 => {
                        let rid = rng.next_bounded(image + 1);
                        pdt.insert_at(rid, v(rng.range_i64(500, 999)), *tag, base)
                            .unwrap();
                        *tag += 1;
                    }
                    1 if image > 0 => {
                        pdt.delete_at(rng.next_bounded(image), base).unwrap();
                    }
                    _ if image > 0 => {
                        let col = rng.next_bounded(2) as usize;
                        pdt.modify_at(
                            rng.next_bounded(image),
                            col,
                            Value::I64(rng.range_i64(-99, 0)),
                            base,
                        )
                        .unwrap();
                    }
                    _ => {}
                }
            }
        };
        random_ops(&mut lower, stable_n, ops, &mut tag);
        let image1 = apply_plan(&lower.merge_plan(stable_n), &stable(stable_n));
        let mut upper = Pdt::new();
        random_ops(&mut upper, image1.len() as u64, ops, &mut tag);
        let expect = apply_plan(&upper.merge_plan(image1.len() as u64), &image1);
        let composed = compose(
            &lower.merge_plan(stable_n),
            &upper.merge_plan(image1.len() as u64),
        );
        assert_eq!(apply_plan(&composed, &stable(stable_n)), expect);
    }

    #[test]
    fn compose_randomized() {
        for seed in 0..20 {
            run_compose_model(seed, 30, 25);
        }
    }

    /// Randomized property: 40 cases of (seed, stable_n, ops) drawn from a
    /// fixed meta-stream, so failures reproduce deterministically.
    #[test]
    fn prop_plan_conservation() {
        let mut meta = SplitMix64::new(0x9E1A_5CA5E5);
        for _ in 0..40 {
            let seed = meta.next_u64();
            let stable_n = meta.next_bounded(50);
            let ops = meta.next_bounded(60) as usize;
            let mut rng = SplitMix64::new(seed);
            let mut pdt = Pdt::new();
            let mut tag = 0u64;
            for _ in 0..ops {
                let image = pdt.image_len(stable_n);
                match rng.next_bounded(3) {
                    0 => {
                        pdt.insert_at(rng.next_bounded(image + 1), v(7), tag, stable_n)
                            .unwrap();
                        tag += 1;
                    }
                    1 if image > 0 => {
                        pdt.delete_at(rng.next_bounded(image), stable_n).unwrap();
                    }
                    _ if image > 0 => {
                        pdt.modify_at(rng.next_bounded(image), 0, Value::I64(1), stable_n)
                            .unwrap();
                    }
                    _ => {}
                }
            }
            let plan = pdt.merge_plan(stable_n);
            // Plans consume every stable row exactly once and emit image_len rows.
            let consumed: u64 = plan.iter().map(|s| s.consumes()).sum();
            let emitted: u64 = plan.iter().map(|s| s.emits()).sum();
            assert_eq!(consumed, stable_n, "seed {seed}");
            assert_eq!(emitted, pdt.image_len(stable_n), "seed {seed}");
        }
    }

    #[test]
    fn prop_compose_equivalence() {
        let mut meta = SplitMix64::new(0x0C04_405E);
        for _ in 0..40 {
            let seed = meta.next_u64();
            let stable_n = meta.next_bounded(40);
            let ops = 1 + meta.next_bounded(29) as usize;
            run_compose_model(seed, stable_n, ops);
        }
    }
}
