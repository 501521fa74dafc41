//! The PDT core: a leaf-chunked counting tree over positional updates.
//!
//! Entries are kept sorted by SID; per-SID *groups* are ordered as
//! `[Insert*, Modify*, Delete?]` — inserts land *before* the stable row with
//! that SID, modifies and an optional delete refer to the stable row itself
//! (a delete removes any modifies, so the two never coexist). Groups never
//! span leaf boundaries, so every positional computation is leaf-local;
//! each leaf caches its delta (`#inserts − #deletes`), which gives whole-leaf
//! skipping during SID↔RID translation — the chunked analogue of the
//! counting-B+-tree inner nodes described in the paper.

use std::sync::Arc;

use vectorh_common::{Result, Value, VhError};

/// Target number of entries per leaf (leaves holding one big same-SID group
/// may exceed it, since groups must stay leaf-local).
const MAX_LEAF: usize = 128;

/// One differential update.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// A new tuple inserted before stable position `sid`. `tag` is a
    /// process-unique tuple identity used for conflict tracking. The row is
    /// shared with the merge plans that emit it, so building a plan does
    /// not copy it.
    Insert { tag: u64, values: Arc<Vec<Value>> },
    /// The stable tuple at `sid` is deleted.
    Delete,
    /// Column `col` of the stable tuple at `sid` now has `value`.
    Modify { col: usize, value: Value },
}

impl Update {
    fn delta(&self) -> i64 {
        match self {
            Update::Insert { .. } => 1,
            Update::Delete => -1,
            Update::Modify { .. } => 0,
        }
    }
}

/// An update entry: (SID, update).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub sid: u64,
    pub upd: Update,
}

#[derive(Debug, Clone, Default)]
struct Leaf {
    entries: Vec<Entry>,
    delta: i64,
}

impl Leaf {
    fn first_sid(&self) -> u64 {
        self.entries.first().map(|e| e.sid).unwrap_or(u64::MAX)
    }
    fn last_sid(&self) -> u64 {
        self.entries.last().map(|e| e.sid).unwrap_or(0)
    }
}

/// Result of resolving a RID against one PDT layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Find {
    /// The RID is a (possibly modified) stable row of the image below.
    Stable { sid: u64 },
    /// The RID is a row inserted by this PDT; `tag` identifies it.
    Inserted { tag: u64 },
}

/// A Positional Delta Tree.
#[derive(Debug, Clone, Default)]
pub struct Pdt {
    leaves: Vec<Leaf>,
    total_delta: i64,
    n_inserts: usize,
    n_deletes: usize,
    n_modifies: usize,
}

impl Pdt {
    pub fn new() -> Pdt {
        Pdt::default()
    }

    /// Net row-count change this PDT applies to the image below.
    pub fn total_delta(&self) -> i64 {
        self.total_delta
    }

    pub fn is_empty(&self) -> bool {
        self.leaves.iter().all(|l| l.entries.is_empty())
    }

    pub fn n_entries(&self) -> usize {
        self.n_inserts + self.n_deletes + self.n_modifies
    }

    pub fn n_inserts(&self) -> usize {
        self.n_inserts
    }

    pub fn n_deletes(&self) -> usize {
        self.n_deletes
    }

    pub fn n_modifies(&self) -> usize {
        self.n_modifies
    }

    /// Length of the image this PDT produces over a below-image of
    /// `stable_len` rows.
    pub fn image_len(&self, stable_len: u64) -> u64 {
        (stable_len as i64 + self.total_delta) as u64
    }

    /// Approximate in-memory footprint, used by the update-propagation
    /// trigger ("update propagation is triggered based on the size of PDTs").
    pub fn mem_bytes(&self) -> usize {
        self.leaves
            .iter()
            .flat_map(|l| &l.entries)
            .map(|e| match &e.upd {
                Update::Insert { values, .. } => insert_bytes(values),
                Update::Delete => DELETE_BYTES,
                Update::Modify { value, .. } => modify_bytes(value),
            })
            .sum()
    }

    /// Iterate all entries in order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.leaves.iter().flat_map(|l| l.entries.iter())
    }

    // --- positional machinery -------------------------------------------

    /// Resolve a RID of this layer's image to what produced it.
    pub fn find_rid(&self, rid: u64, stable_len: u64) -> Result<Find> {
        if rid >= self.image_len(stable_len) {
            return Err(VhError::Pdt(format!(
                "rid {rid} out of range (image len {})",
                self.image_len(stable_len)
            )));
        }
        let r = rid as i64;
        let mut cum: i64 = 0;
        for leaf in &self.leaves {
            if leaf.entries.is_empty() {
                continue;
            }
            // Skip the whole leaf when the target lies strictly after it:
            // the first position after the leaf is stable row last_sid+1 at
            // rid last_sid+1+cum+delta.
            let after_leaf = leaf.last_sid() as i64 + 1 + cum + leaf.delta;
            if r >= after_leaf {
                cum += leaf.delta;
                continue;
            }
            // Gap before this leaf.
            if r < leaf.first_sid() as i64 + cum {
                return Ok(Find::Stable {
                    sid: (r - cum) as u64,
                });
            }
            let mut i = 0usize;
            while i < leaf.entries.len() {
                let e_sid = leaf.entries[i].sid;
                if r < e_sid as i64 + cum {
                    return Ok(Find::Stable {
                        sid: (r - cum) as u64,
                    });
                }
                let (k, m, deleted) = group_shape(&leaf.entries, i);
                // Inserted rows occupy [e_sid+cum, e_sid+cum+k).
                if r < e_sid as i64 + cum + k as i64 {
                    let off = (r - e_sid as i64 - cum) as usize;
                    if let Update::Insert { tag, .. } = leaf.entries[i + off].upd {
                        return Ok(Find::Inserted { tag });
                    }
                    unreachable!("group shape guarantees inserts first");
                }
                if !deleted && r == e_sid as i64 + cum + k as i64 {
                    return Ok(Find::Stable { sid: e_sid });
                }
                cum += k as i64 - if deleted { 1 } else { 0 };
                i += k + m + if deleted { 1 } else { 0 };
            }
            // Fell past the leaf's entries: handled by next leaf / tail gap.
        }
        Ok(Find::Stable {
            sid: (r - cum) as u64,
        })
    }

    /// Current RID of stable row `sid`, or `None` if this PDT deletes it.
    pub fn rid_of_stable(&self, sid: u64) -> Option<u64> {
        let mut cum: i64 = 0;
        for leaf in &self.leaves {
            if leaf.entries.is_empty() {
                continue;
            }
            if sid > leaf.last_sid() {
                cum += leaf.delta;
                continue;
            }
            let mut i = 0usize;
            while i < leaf.entries.len() {
                let e_sid = leaf.entries[i].sid;
                if sid < e_sid {
                    return Some((sid as i64 + cum) as u64);
                }
                let (k, m, deleted) = group_shape(&leaf.entries, i);
                if sid == e_sid {
                    if deleted {
                        return None;
                    }
                    return Some((sid as i64 + cum + k as i64) as u64);
                }
                cum += k as i64 - if deleted { 1 } else { 0 };
                i += k + m + if deleted { 1 } else { 0 };
            }
        }
        Some((sid as i64 + cum) as u64)
    }

    /// Current RID of the insert entry carrying `tag`, if present.
    pub fn rid_of_tag(&self, tag: u64) -> Option<u64> {
        let mut cum: i64 = 0;
        for leaf in &self.leaves {
            let mut i = 0usize;
            while i < leaf.entries.len() {
                let e_sid = leaf.entries[i].sid;
                let (k, m, deleted) = group_shape(&leaf.entries, i);
                for off in 0..k {
                    if let Update::Insert { tag: t, .. } = leaf.entries[i + off].upd {
                        if t == tag {
                            return Some((e_sid as i64 + cum + off as i64) as u64);
                        }
                    }
                }
                cum += k as i64 - if deleted { 1 } else { 0 };
                i += k + m + if deleted { 1 } else { 0 };
            }
        }
        None
    }

    /// Pending modifies for stable row `sid` (col → value), in column order
    /// of application.
    pub fn modifies_of(&self, sid: u64) -> Vec<(usize, Value)> {
        let mut out = Vec::new();
        for leaf in &self.leaves {
            if leaf.entries.is_empty() || sid > leaf.last_sid() || sid < leaf.first_sid() {
                continue;
            }
            for e in &leaf.entries {
                if e.sid == sid {
                    if let Update::Modify { col, value } = &e.upd {
                        out.push((*col, value.clone()));
                    }
                }
            }
        }
        out
    }

    /// Is stable row `sid` deleted by this PDT?
    pub fn is_deleted(&self, sid: u64) -> bool {
        self.rid_of_stable(sid).is_none()
    }

    // --- mutations --------------------------------------------------------

    /// Insert `values` so the new row occupies `rid` in this layer's image.
    pub fn insert_at(
        &mut self,
        rid: u64,
        values: impl Into<Arc<Vec<Value>>>,
        tag: u64,
        stable_len: u64,
    ) -> Result<()> {
        let image = self.image_len(stable_len);
        if rid > image {
            return Err(VhError::Pdt(format!(
                "insert rid {rid} beyond image end {image}"
            )));
        }
        let (leaf_idx, entry_idx, sid) = self.insert_position(rid, stable_len);
        if self.leaves.is_empty() {
            self.leaves.push(Leaf::default());
        }
        let leaf_idx = leaf_idx.min(self.leaves.len() - 1);
        let leaf = &mut self.leaves[leaf_idx];
        leaf.entries.insert(
            entry_idx,
            Entry {
                sid,
                upd: Update::Insert {
                    tag,
                    values: values.into(),
                },
            },
        );
        leaf.delta += 1;
        self.total_delta += 1;
        self.n_inserts += 1;
        self.maybe_split(leaf_idx);
        Ok(())
    }

    /// Delete the row at `rid`.
    pub fn delete_at(&mut self, rid: u64, stable_len: u64) -> Result<Find> {
        let found = self.find_rid(rid, stable_len)?;
        match found {
            Find::Inserted { tag } => {
                self.remove_insert_by_tag(tag);
            }
            Find::Stable { sid } => {
                // Drop pending modifies of the row, then record the delete
                // at the end of the sid's group (after its inserts).
                let (leaf_idx, _) = self.group_location(sid);
                let leaf = &mut self.leaves[leaf_idx];
                let before = leaf.entries.len();
                leaf.entries
                    .retain(|e| !(e.sid == sid && matches!(e.upd, Update::Modify { .. })));
                self.n_modifies -= before - leaf.entries.len();
                let pos = leaf
                    .entries
                    .iter()
                    .position(|e| e.sid > sid)
                    .unwrap_or(leaf.entries.len());
                leaf.entries.insert(
                    pos,
                    Entry {
                        sid,
                        upd: Update::Delete,
                    },
                );
                leaf.delta -= 1;
                self.total_delta -= 1;
                self.n_deletes += 1;
                self.maybe_split(leaf_idx);
            }
        }
        Ok(found)
    }

    /// Set column `col` of the row at `rid` to `value`.
    pub fn modify_at(
        &mut self,
        rid: u64,
        col: usize,
        value: Value,
        stable_len: u64,
    ) -> Result<Find> {
        let found = self.find_rid(rid, stable_len)?;
        match found {
            Find::Inserted { tag } => {
                // Patch the pending insert in place: the paper notes inserts
                // dominate PDT volume and modifies of fresh inserts fold away.
                'outer: for leaf in &mut self.leaves {
                    for e in &mut leaf.entries {
                        if let Update::Insert { tag: t, values } = &mut e.upd {
                            if *t == tag {
                                if col >= values.len() {
                                    return Err(VhError::Pdt(format!(
                                        "modify col {col} out of bounds"
                                    )));
                                }
                                Arc::make_mut(values)[col] = value;
                                break 'outer;
                            }
                        }
                    }
                }
            }
            Find::Stable { sid } => {
                let (leaf_idx, _) = self.group_location(sid);
                let leaf = &mut self.leaves[leaf_idx];
                // Replace an existing modify of the same column.
                for e in &mut leaf.entries {
                    if e.sid == sid {
                        if let Update::Modify { col: c, value: v } = &mut e.upd {
                            if *c == col {
                                *v = value;
                                return Ok(found);
                            }
                        }
                    }
                }
                let pos = leaf
                    .entries
                    .iter()
                    .position(|e| e.sid > sid)
                    .unwrap_or(leaf.entries.len());
                leaf.entries.insert(
                    pos,
                    Entry {
                        sid,
                        upd: Update::Modify { col, value },
                    },
                );
                self.n_modifies += 1;
                self.maybe_split(leaf_idx);
            }
        }
        Ok(found)
    }

    /// Replay every entry of this PDT onto the layer below, in order.
    ///
    /// Our SIDs are RIDs of `below`'s pre-replay image; a running shift
    /// accounts for the rows our own earlier entries added/removed. This is
    /// both commit serialization (Trans→Write), Write→Read propagation and
    /// WAL replay.
    pub fn propagate_into(&self, below: &mut Pdt, below_stable_len: u64) -> Result<()> {
        let mut shift: i64 = 0;
        for e in self.entries() {
            let target = (e.sid as i64 + shift) as u64;
            match &e.upd {
                Update::Insert { tag, values } => {
                    below.insert_at(target, values.clone(), *tag, below_stable_len)?;
                    shift += 1;
                }
                Update::Delete => {
                    below.delete_at(target, below_stable_len)?;
                    shift -= 1;
                }
                Update::Modify { col, value } => {
                    below.modify_at(target, *col, value.clone(), below_stable_len)?;
                }
            }
        }
        Ok(())
    }

    // --- internals ---------------------------------------------------------

    /// Where must a new insert go so it lands at `rid`? Returns
    /// (leaf index, entry index within leaf, sid for the new entry).
    fn insert_position(&self, rid: u64, _stable_len: u64) -> (usize, usize, u64) {
        let r = rid as i64;
        let mut cum: i64 = 0;
        for (li, leaf) in self.leaves.iter().enumerate() {
            if leaf.entries.is_empty() {
                continue;
            }
            let after_leaf = leaf.last_sid() as i64 + 1 + cum + leaf.delta;
            if r >= after_leaf {
                cum += leaf.delta;
                continue;
            }
            if r < leaf.first_sid() as i64 + cum {
                return (li, 0, (r - cum) as u64);
            }
            let mut i = 0usize;
            while i < leaf.entries.len() {
                let e_sid = leaf.entries[i].sid;
                if r < e_sid as i64 + cum {
                    return (li, i, (r - cum) as u64);
                }
                let (k, m, deleted) = group_shape(&leaf.entries, i);
                // Inside or directly after the insert run of this group.
                if r <= e_sid as i64 + cum + k as i64 {
                    let off = (r - e_sid as i64 - cum) as usize;
                    return (li, i + off, e_sid);
                }
                cum += k as i64 - if deleted { 1 } else { 0 };
                i += k + m + if deleted { 1 } else { 0 };
            }
            // Past all entries of this leaf but before `after_leaf`:
            // a stable-gap position inside this leaf's tail.
            return (li, leaf.entries.len(), (r - cum) as u64);
        }
        let li = if self.leaves.is_empty() {
            0
        } else {
            self.leaves.len() - 1
        };
        let ei = self.leaves.last().map(|l| l.entries.len()).unwrap_or(0);
        (li, ei, (r - cum) as u64)
    }

    /// Leaf containing (or that should contain) the group of `sid`, plus the
    /// index one past the group. Creates an empty leaf for an empty tree.
    fn group_location(&mut self, sid: u64) -> (usize, usize) {
        if self.leaves.iter().all(|l| l.entries.is_empty()) {
            if self.leaves.is_empty() {
                self.leaves.push(Leaf::default());
            }
            return (0, 0);
        }
        for (li, leaf) in self.leaves.iter().enumerate() {
            if leaf.entries.is_empty() {
                continue;
            }
            if sid <= leaf.last_sid() {
                let end = leaf
                    .entries
                    .iter()
                    .position(|e| e.sid > sid)
                    .unwrap_or(leaf.entries.len());
                return (li, end);
            }
        }
        // Past every entry: use the last non-empty leaf.
        let li = self
            .leaves
            .iter()
            .rposition(|l| !l.entries.is_empty())
            .expect("non-empty tree");
        (li, self.leaves[li].entries.len())
    }

    fn remove_insert_by_tag(&mut self, tag: u64) {
        for leaf in &mut self.leaves {
            if let Some(pos) = leaf
                .entries
                .iter()
                .position(|e| matches!(e.upd, Update::Insert { tag: t, .. } if t == tag))
            {
                leaf.entries.remove(pos);
                leaf.delta -= 1;
                self.total_delta -= 1;
                self.n_inserts -= 1;
                return;
            }
        }
    }

    /// Ensure the group of `sid` has a leaf; create an empty leaf if the
    /// tree is empty. (Groups of new sids simply go to the right leaf via
    /// `group_location`.)
    fn maybe_split(&mut self, leaf_idx: usize) {
        if self.leaves.is_empty() {
            return;
        }
        let leaf = &self.leaves[leaf_idx];
        if leaf.entries.len() <= MAX_LEAF {
            return;
        }
        // Split at the nearest group boundary to the midpoint.
        let mid = leaf.entries.len() / 2;
        let mid_sid = leaf.entries[mid].sid;
        let mut split = leaf.entries.iter().position(|e| e.sid == mid_sid).unwrap();
        if split == 0 {
            // The first group reaches the midpoint; split after it instead.
            split = leaf
                .entries
                .iter()
                .position(|e| e.sid > mid_sid)
                .unwrap_or(leaf.entries.len());
            if split == leaf.entries.len() {
                return; // single-group leaf: cannot split
            }
        }
        let leaf = &mut self.leaves[leaf_idx];
        let right_entries: Vec<Entry> = leaf.entries.drain(split..).collect();
        let right_delta: i64 = right_entries.iter().map(|e| e.upd.delta()).sum();
        leaf.delta -= right_delta;
        self.leaves.insert(
            leaf_idx + 1,
            Leaf {
                entries: right_entries,
                delta: right_delta,
            },
        );
    }

    /// Integrity check used by tests: leaf deltas and orderings hold.
    pub fn check_invariants(&self) -> Result<()> {
        let mut last_sid = 0u64;
        let mut first = true;
        let mut total = 0i64;
        for leaf in &self.leaves {
            let mut delta = 0i64;
            for e in &leaf.entries {
                if !first && e.sid < last_sid {
                    return Err(VhError::Internal("sid order violated".into()));
                }
                last_sid = e.sid;
                first = false;
                delta += e.upd.delta();
            }
            if delta != leaf.delta {
                return Err(VhError::Internal(format!(
                    "leaf delta {} != computed {delta}",
                    leaf.delta
                )));
            }
            total += delta;
            // Group shape: inserts, then modifies, then delete.
            let mut i = 0usize;
            while i < leaf.entries.len() {
                let sid = leaf.entries[i].sid;
                let mut phase = 0; // 0=insert,1=modify,2=delete
                let mut j = i;
                while j < leaf.entries.len() && leaf.entries[j].sid == sid {
                    let p = match leaf.entries[j].upd {
                        Update::Insert { .. } => 0,
                        Update::Modify { .. } => 1,
                        Update::Delete => 2,
                    };
                    if p < phase {
                        return Err(VhError::Internal("group shape violated".into()));
                    }
                    phase = p;
                    j += 1;
                }
                i = j;
            }
        }
        if total != self.total_delta {
            return Err(VhError::Internal("total delta mismatch".into()));
        }
        Ok(())
    }
}

/// Shape of the group starting at `entries[i]`:
/// `(inserts, modifies, has_delete)`. All entries of the group share a SID.
fn group_shape(entries: &[Entry], i: usize) -> (usize, usize, bool) {
    let sid = entries[i].sid;
    let mut k = 0usize;
    let mut m = 0usize;
    let mut deleted = false;
    for e in &entries[i..] {
        if e.sid != sid {
            break;
        }
        match e.upd {
            Update::Insert { .. } => k += 1,
            Update::Modify { .. } => m += 1,
            Update::Delete => deleted = true,
        }
    }
    (k, m, deleted)
}

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.len() + 8,
        _ => 8,
    }
}

/// What [`Pdt::mem_bytes`] counts for one entry of each kind.
pub(crate) const DELETE_BYTES: usize = 16;

pub(crate) fn insert_bytes(values: &[Value]) -> usize {
    32 + values.iter().map(value_bytes).sum::<usize>()
}

pub(crate) fn modify_bytes(value: &Value) -> usize {
    24 + value_bytes(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::rng::SplitMix64;

    /// Naive reference: materialized rows.
    #[derive(Clone)]
    struct Reference {
        rows: Vec<Vec<Value>>,
    }

    fn v(i: i64) -> Vec<Value> {
        vec![Value::I64(i), Value::I64(i * 10)]
    }

    fn stable(n: u64) -> Vec<Vec<Value>> {
        (0..n as i64).map(v).collect()
    }

    /// Apply a PDT to materialized stable rows (via merge semantics derived
    /// from find_rid — independent of merge.rs).
    fn materialize(pdt: &Pdt, stable_rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let n = pdt.image_len(stable_rows.len() as u64);
        (0..n)
            .map(
                |rid| match pdt.find_rid(rid, stable_rows.len() as u64).unwrap() {
                    Find::Stable { sid } => {
                        let mut row = stable_rows[sid as usize].clone();
                        for (c, val) in pdt.modifies_of(sid) {
                            row[c] = val;
                        }
                        row
                    }
                    Find::Inserted { tag } => pdt
                        .entries()
                        .find_map(|e| match &e.upd {
                            Update::Insert { tag: t, values } if *t == tag => Some(values.to_vec()),
                            _ => None,
                        })
                        .unwrap(),
                },
            )
            .collect()
    }

    #[test]
    fn empty_pdt_is_identity() {
        let pdt = Pdt::new();
        assert_eq!(pdt.image_len(10), 10);
        assert_eq!(pdt.find_rid(3, 10).unwrap(), Find::Stable { sid: 3 });
        assert_eq!(pdt.rid_of_stable(7), Some(7));
        assert!(pdt.find_rid(10, 10).is_err());
    }

    #[test]
    fn single_insert_shifts_rids() {
        let mut pdt = Pdt::new();
        pdt.insert_at(3, v(100), 1, 10).unwrap();
        assert_eq!(pdt.image_len(10), 11);
        assert_eq!(pdt.find_rid(2, 10).unwrap(), Find::Stable { sid: 2 });
        assert_eq!(pdt.find_rid(3, 10).unwrap(), Find::Inserted { tag: 1 });
        assert_eq!(pdt.find_rid(4, 10).unwrap(), Find::Stable { sid: 3 });
        assert_eq!(pdt.rid_of_stable(3), Some(4));
        assert_eq!(pdt.rid_of_stable(2), Some(2));
        assert_eq!(pdt.rid_of_tag(1), Some(3));
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn delete_removes_row() {
        let mut pdt = Pdt::new();
        pdt.delete_at(5, 10).unwrap();
        assert_eq!(pdt.image_len(10), 9);
        assert_eq!(pdt.find_rid(5, 10).unwrap(), Find::Stable { sid: 6 });
        assert_eq!(pdt.rid_of_stable(5), None);
        assert!(pdt.is_deleted(5));
        assert_eq!(pdt.rid_of_stable(9), Some(8));
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn delete_of_pending_insert_cancels_it() {
        let mut pdt = Pdt::new();
        pdt.insert_at(2, v(50), 9, 10).unwrap();
        assert_eq!(pdt.image_len(10), 11);
        pdt.delete_at(2, 10).unwrap();
        assert_eq!(pdt.image_len(10), 10);
        assert!(pdt.is_empty());
        assert_eq!(pdt.n_entries(), 0);
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn modify_stable_and_inserted() {
        let mut pdt = Pdt::new();
        pdt.modify_at(4, 1, Value::I64(999), 10).unwrap();
        assert_eq!(pdt.modifies_of(4), vec![(1, Value::I64(999))]);
        // Same column modified again: replaced, not duplicated.
        pdt.modify_at(4, 1, Value::I64(1000), 10).unwrap();
        assert_eq!(pdt.modifies_of(4), vec![(1, Value::I64(1000))]);
        assert_eq!(pdt.n_modifies(), 1);
        // Modify of a pending insert patches the payload.
        pdt.insert_at(0, v(1), 5, 10).unwrap();
        pdt.modify_at(0, 0, Value::I64(-7), 10).unwrap();
        let rows = materialize(&pdt, &stable(10));
        assert_eq!(rows[0][0], Value::I64(-7));
        assert_eq!(rows[5][1], Value::I64(1000)); // stable row 4 shifted to rid 5
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn delete_erases_pending_modifies() {
        let mut pdt = Pdt::new();
        pdt.modify_at(4, 0, Value::I64(1), 10).unwrap();
        pdt.modify_at(4, 1, Value::I64(2), 10).unwrap();
        pdt.delete_at(4, 10).unwrap();
        assert_eq!(pdt.n_modifies(), 0);
        assert_eq!(pdt.n_deletes(), 1);
        assert!(pdt.modifies_of(4).is_empty());
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn inserts_at_same_point_keep_order() {
        let mut pdt = Pdt::new();
        pdt.insert_at(5, v(1), 1, 10).unwrap();
        pdt.insert_at(6, v(2), 2, 10).unwrap(); // right after the first
        pdt.insert_at(5, v(0), 3, 10).unwrap(); // before both
        let rows = materialize(&pdt, &stable(10));
        assert_eq!(rows[5][0], Value::I64(0));
        assert_eq!(rows[6][0], Value::I64(1));
        assert_eq!(rows[7][0], Value::I64(2));
        assert_eq!(rows[8], v(5));
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn append_at_image_end() {
        let mut pdt = Pdt::new();
        pdt.insert_at(10, v(100), 1, 10).unwrap();
        pdt.insert_at(11, v(101), 2, 10).unwrap();
        assert_eq!(pdt.image_len(10), 12);
        let rows = materialize(&pdt, &stable(10));
        assert_eq!(rows[10][0], Value::I64(100));
        assert_eq!(rows[11][0], Value::I64(101));
        assert!(pdt.insert_at(20, v(1), 3, 10).is_err());
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn contiguous_range_delete_is_compact() {
        // "Deletes are stored efficiently in PDTs, especially for contiguous
        // ranges" — repeatedly deleting rid 3 removes rows 3,4,5,...
        let mut pdt = Pdt::new();
        for _ in 0..5 {
            pdt.delete_at(3, 20).unwrap();
        }
        assert_eq!(pdt.image_len(20), 15);
        assert_eq!(pdt.n_deletes(), 5);
        let rows = materialize(&pdt, &stable(20));
        assert_eq!(rows[3], v(8));
        pdt.check_invariants().unwrap();
    }

    #[test]
    fn leaf_splitting_preserves_semantics() {
        let mut pdt = Pdt::new();
        let stable_n = 10_000u64;
        // Interleave enough entries to force many leaf splits.
        for i in 0..1000u64 {
            pdt.insert_at(i * 7 % pdt.image_len(stable_n), v(i as i64), i, stable_n)
                .unwrap();
        }
        pdt.check_invariants().unwrap();
        assert!(
            pdt.leaves.len() > 4,
            "splits expected, got {}",
            pdt.leaves.len()
        );
        assert_eq!(pdt.image_len(stable_n), stable_n + 1000);
    }

    #[test]
    fn propagate_into_empty_below_replays_exactly() {
        let mut upper = Pdt::new();
        upper.insert_at(2, v(42), 1, 10).unwrap();
        upper.delete_at(5, 10).unwrap();
        upper.modify_at(8, 0, Value::I64(-1), 10).unwrap();
        let mut below = Pdt::new();
        upper.propagate_into(&mut below, 10).unwrap();
        assert_eq!(
            materialize(&below, &stable(10)),
            materialize(&upper, &stable(10))
        );
        below.check_invariants().unwrap();
    }

    #[test]
    fn propagate_stacks_compose() {
        // below and upper both non-trivial: upper's sids are rids of
        // below's image.
        let mut below = Pdt::new();
        below.insert_at(1, v(100), 1, 8).unwrap(); // image: 9 rows
        below.delete_at(4, 8).unwrap(); // image: 8 rows
        let image1 = materialize(&below, &stable(8));

        let mut upper = Pdt::new();
        upper.insert_at(0, v(200), 2, image1.len() as u64).unwrap();
        upper.delete_at(7, image1.len() as u64).unwrap();
        upper
            .modify_at(3, 1, Value::I64(777), image1.len() as u64)
            .unwrap();
        let expect: Vec<Vec<Value>> = { materialize(&upper, &image1) };

        upper.propagate_into(&mut below, 8).unwrap();
        assert_eq!(materialize(&below, &stable(8)), expect);
        below.check_invariants().unwrap();
    }

    // --- randomized model test -------------------------------------------

    fn run_model(seed: u64, stable_n: u64, ops: usize) {
        let mut rng = SplitMix64::new(seed);
        let mut pdt = Pdt::new();
        let mut model = Reference {
            rows: stable(stable_n),
        };
        let mut tag = 1000u64;
        for op in 0..ops {
            let image = pdt.image_len(stable_n);
            assert_eq!(image as usize, model.rows.len(), "op {op}");
            let choice = rng.next_bounded(10);
            if choice < 4 || image == 0 {
                // insert
                let rid = rng.next_bounded(image + 1);
                let row = v(rng.range_i64(-500, 500));
                pdt.insert_at(rid, row.clone(), tag, stable_n).unwrap();
                model.rows.insert(rid as usize, row);
                tag += 1;
            } else if choice < 7 {
                let rid = rng.next_bounded(image);
                pdt.delete_at(rid, stable_n).unwrap();
                model.rows.remove(rid as usize);
            } else {
                let rid = rng.next_bounded(image);
                let col = rng.next_bounded(2) as usize;
                let val = Value::I64(rng.range_i64(-9999, 9999));
                pdt.modify_at(rid, col, val.clone(), stable_n).unwrap();
                model.rows[rid as usize][col] = val;
            }
            if op % 16 == 0 {
                pdt.check_invariants().unwrap();
            }
        }
        pdt.check_invariants().unwrap();
        assert_eq!(materialize(&pdt, &stable(stable_n)), model.rows);
        // rid_of_stable must agree with materialization for surviving rows.
        for sid in 0..stable_n {
            if let Some(rid) = pdt.rid_of_stable(sid) {
                match pdt.find_rid(rid, stable_n).unwrap() {
                    Find::Stable { sid: s } => assert_eq!(s, sid),
                    other => panic!("rid_of_stable({sid}) -> {rid} resolved to {other:?}"),
                }
            }
        }
    }

    #[test]
    fn randomized_against_reference_small() {
        run_model(1, 20, 200);
        run_model(2, 0, 100);
        run_model(3, 1, 150);
    }

    #[test]
    fn randomized_against_reference_large() {
        run_model(4, 500, 1200);
    }

    /// Randomized property: 48 parameter draws from a fixed meta-stream so
    /// failures reproduce deterministically.
    #[test]
    fn prop_model_equivalence() {
        let mut meta = SplitMix64::new(0x7EE5_1DE5);
        for _ in 0..48 {
            let seed = meta.next_u64();
            let stable_n = meta.next_bounded(60);
            let ops = 1 + meta.next_bounded(119) as usize;
            run_model(seed, stable_n, ops);
        }
    }

    #[test]
    fn prop_propagate_equivalence() {
        let mut meta = SplitMix64::new(0x0A6A_6A7E);
        for _ in 0..48 {
            let seed = meta.next_u64();
            let stable_n = 1 + meta.next_bounded(39);
            let ops = 1 + meta.next_bounded(39) as usize;
            let mut rng = SplitMix64::new(seed);
            let mut upper = Pdt::new();
            let mut tag = 0u64;
            for _ in 0..ops {
                let image = upper.image_len(stable_n);
                match rng.next_bounded(3) {
                    0 => {
                        let rid = rng.next_bounded(image + 1);
                        upper
                            .insert_at(rid, v(rng.range_i64(0, 99)), tag, stable_n)
                            .unwrap();
                        tag += 1;
                    }
                    1 if image > 0 => {
                        upper.delete_at(rng.next_bounded(image), stable_n).unwrap();
                    }
                    _ if image > 0 => {
                        upper
                            .modify_at(
                                rng.next_bounded(image),
                                0,
                                Value::I64(rng.range_i64(0, 9)),
                                stable_n,
                            )
                            .unwrap();
                    }
                    _ => {}
                }
            }
            let mut below = Pdt::new();
            upper.propagate_into(&mut below, stable_n).unwrap();
            assert_eq!(
                materialize(&below, &stable(stable_n)),
                materialize(&upper, &stable(stable_n)),
                "seed {seed}"
            );
        }
    }
}
