//! PDT stacking and tuple identity.
//!
//! Isolation in VectorH (§6) comes from layering: all queries share a
//! Read-PDT and a Write-PDT; each transaction stacks a private Trans-PDT on
//! top. A layer's SID space is the RID space of the image below it, so
//! resolving "which tuple is at RID r" means walking down the stack
//! ([`Layers::locate`]), and "where is tuple K now" means walking up
//! ([`Layers::rid_of_key`]).
//!
//! [`TupleKey`] is the tuple-granularity identity used for optimistic
//! write-write conflict detection at commit: a stable-table position, or the
//! unique tag of a pending insert.

use vectorh_common::{Result, VhError};

use crate::merge::{compose, MergeStep};
use crate::tree::{Find, Pdt};

/// Identity of a tuple independent of its current RID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TupleKey {
    /// Position in the stable (on-disk) table image.
    Stable(u64),
    /// The unique tag of an insert pending in some PDT layer.
    Tagged(u64),
}

/// A read-only view of a PDT stack, bottom (closest to storage) to top.
pub struct Layers<'a> {
    pub stable_len: u64,
    pub layers: Vec<&'a Pdt>,
}

impl<'a> Layers<'a> {
    pub fn new(stable_len: u64, layers: Vec<&'a Pdt>) -> Layers<'a> {
        Layers { stable_len, layers }
    }

    /// Image length below layer `k` (k = 0 → the stable table itself).
    fn len_below(&self, k: usize) -> u64 {
        let mut n = self.stable_len as i64;
        for layer in &self.layers[..k] {
            n += layer.total_delta();
        }
        n as u64
    }

    /// Total visible rows.
    pub fn image_len(&self) -> u64 {
        self.len_below(self.layers.len())
    }

    /// Resolve a visible RID to a tuple identity.
    pub fn locate(&self, rid: u64) -> Result<TupleKey> {
        let mut r = rid;
        for k in (0..self.layers.len()).rev() {
            match self.layers[k].find_rid(r, self.len_below(k))? {
                Find::Inserted { tag } => return Ok(TupleKey::Tagged(tag)),
                Find::Stable { sid } => r = sid,
            }
        }
        Ok(TupleKey::Stable(r))
    }

    /// Current RID of a tuple, or `None` if it is deleted / unknown.
    pub fn rid_of_key(&self, key: TupleKey) -> Option<u64> {
        match key {
            TupleKey::Stable(sid) => {
                if sid >= self.stable_len {
                    return None;
                }
                let mut r = sid;
                for layer in &self.layers {
                    r = layer.rid_of_stable(r)?;
                }
                Some(r)
            }
            TupleKey::Tagged(tag) => {
                // Find the layer holding the insert, then lift through the
                // layers above it.
                for (k, layer) in self.layers.iter().enumerate() {
                    if let Some(mut r) = layer.rid_of_tag(tag) {
                        for upper in &self.layers[k + 1..] {
                            r = upper.rid_of_stable(r)?;
                        }
                        return Some(r);
                    }
                }
                None
            }
        }
    }

    /// Single merge plan in stable coordinates for the whole stack. An
    /// empty layer is the identity over the image below it, so it is
    /// skipped rather than composed.
    pub fn merged_plan(&self) -> Vec<MergeStep> {
        let mut plan: Option<Vec<MergeStep>> = None;
        for (k, layer) in self.layers.iter().enumerate() {
            if layer.is_empty() {
                continue;
            }
            let lp = layer.merge_plan(self.len_below(k));
            plan = Some(match plan {
                None => lp,
                Some(lower) => compose(&lower, &lp),
            });
        }
        plan.unwrap_or_else(|| Pdt::new().merge_plan(self.stable_len))
    }

    /// The tuple key currently occupying the position *before* `rid`
    /// (anchor for replayable inserts), or `None` when `rid` is 0.
    pub fn anchor_before(&self, rid: u64) -> Result<Option<TupleKey>> {
        if rid == 0 {
            return Ok(None);
        }
        if rid > self.image_len() {
            return Err(VhError::Pdt(format!(
                "anchor rid {rid} beyond image {}",
                self.image_len()
            )));
        }
        Ok(Some(self.locate(rid - 1)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::Value;

    fn v(i: i64) -> Vec<Value> {
        vec![Value::I64(i)]
    }

    #[test]
    fn empty_stack_is_identity() {
        let layers = Layers::new(5, vec![]);
        assert_eq!(layers.image_len(), 5);
        assert_eq!(
            layers.merged_plan(),
            vec![MergeStep::CopyStable {
                from_sid: 0,
                count: 5
            }]
        );
    }

    #[test]
    fn locate_walks_down_the_stack() {
        let mut read = Pdt::new();
        read.insert_at(1, v(100), 1, 4).unwrap(); // image: [s0, i100, s1, s2, s3]
        let mut write = Pdt::new();
        write.delete_at(0, 5).unwrap(); // image: [i100, s1, s2, s3]
        let layers = Layers::new(4, vec![&read, &write]);
        assert_eq!(layers.image_len(), 4);
        assert_eq!(layers.locate(0).unwrap(), TupleKey::Tagged(1));
        assert_eq!(layers.locate(1).unwrap(), TupleKey::Stable(1));
        assert_eq!(layers.locate(3).unwrap(), TupleKey::Stable(3));
        assert!(layers.locate(4).is_err());
    }

    #[test]
    fn rid_of_key_roundtrips_locate() {
        let mut read = Pdt::new();
        read.insert_at(2, v(7), 11, 6).unwrap();
        read.delete_at(5, 6).unwrap();
        let mut write = Pdt::new();
        write.insert_at(0, v(8), 22, 6).unwrap();
        write.delete_at(3, 6).unwrap();
        let layers = Layers::new(6, vec![&read, &write]);
        for rid in 0..layers.image_len() {
            let key = layers.locate(rid).unwrap();
            assert_eq!(layers.rid_of_key(key), Some(rid), "key {key:?}");
        }
    }

    #[test]
    fn deleted_tuple_has_no_rid() {
        let mut write = Pdt::new();
        write.delete_at(2, 5).unwrap();
        let layers = Layers::new(5, vec![&write]);
        assert_eq!(layers.rid_of_key(TupleKey::Stable(2)), None);
        assert_eq!(layers.rid_of_key(TupleKey::Stable(3)), Some(2));
        assert_eq!(layers.rid_of_key(TupleKey::Stable(99)), None);
        assert_eq!(layers.rid_of_key(TupleKey::Tagged(77)), None);
    }

    #[test]
    fn anchor_before_identifies_predecessor() {
        let mut write = Pdt::new();
        write.insert_at(1, v(9), 5, 3).unwrap();
        let layers = Layers::new(3, vec![&write]);
        assert_eq!(layers.anchor_before(0).unwrap(), None);
        assert_eq!(layers.anchor_before(1).unwrap(), Some(TupleKey::Stable(0)));
        assert_eq!(layers.anchor_before(2).unwrap(), Some(TupleKey::Tagged(5)));
        assert_eq!(layers.anchor_before(4).unwrap(), Some(TupleKey::Stable(2)));
        assert!(layers.anchor_before(5).is_err());
    }

    #[test]
    fn merged_plan_equals_sequential_materialization() {
        use crate::merge::apply_plan;
        let stable: Vec<Vec<Value>> = (0..8).map(v).collect();
        let mut read = Pdt::new();
        read.insert_at(3, v(300), 1, 8).unwrap();
        read.modify_at(0, 0, Value::I64(-1), 8).unwrap();
        let image1 = apply_plan(&read.merge_plan(8), &stable);
        let mut write = Pdt::new();
        write.delete_at(4, 9).unwrap();
        write.insert_at(0, v(400), 2, 9).unwrap();
        let expect = apply_plan(&write.merge_plan(9), &image1);

        let layers = Layers::new(8, vec![&read, &write]);
        let got = apply_plan(&layers.merged_plan(), &stable);
        assert_eq!(got, expect);
        assert_eq!(got.len() as u64, layers.image_len());
    }
}
