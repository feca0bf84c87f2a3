//! The consistent-hash ring: who owns which shard of the 128-bit
//! content-key space.
//!
//! Each member node is hashed onto a 64-bit circle at `vnodes` points
//! (virtual nodes); a key's owner is the node whose virtual point is
//! the first at or clockwise-after the key's own hash. Virtual nodes
//! smooth the shard sizes (max imbalance shrinks roughly with
//! `1/sqrt(vnodes)`) and make membership changes *minimal*: when a node
//! joins or leaves, only the key ranges adjacent to its virtual points
//! move — everything else keeps its owner. Both properties are pinned
//! by the proptest suite in `tests/ring_props.rs`.
//!
//! The ring is a pure value: nodes in, deterministic point placement
//! out. Every cluster member derives the same ring from the same
//! member list, so there is no coordinator and nothing to gossip
//! beyond liveness.

use lp_obs::json::Value;

/// Default virtual nodes per member.
pub const DEFAULT_VNODES: usize = 64;

/// SplitMix64 — the point-placement hash. Deterministic and
/// dependency-free; quality is plenty for shard placement.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over bytes, folded through splitmix — places node names and
/// 16-byte content keys on the same 64-bit circle.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix(h)
}

/// A consistent-hash ring over named nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// Sorted virtual points: `(point, index into nodes)`.
    points: Vec<(u64, usize)>,
    /// Member names (typically `host:port` addresses), sorted + deduped.
    nodes: Vec<String>,
    /// Virtual nodes per member.
    vnodes: usize,
}

impl Ring {
    /// Builds the ring for `nodes` with `vnodes` virtual points each.
    /// Node order does not matter (members are sorted first), so every
    /// cluster member derives an identical ring from the same set.
    pub fn build(nodes: &[String], vnodes: usize) -> Ring {
        let mut members: Vec<String> = nodes.to_vec();
        members.sort();
        members.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for (i, node) in members.iter().enumerate() {
            for v in 0..vnodes {
                let mut tag = node.clone().into_bytes();
                tag.push(b'#');
                tag.extend_from_slice(&(v as u64).to_le_bytes());
                points.push((hash_bytes(&tag), i));
            }
        }
        // Ties (astronomically unlikely) resolve to the lexicographically
        // smaller node, deterministically, because members are sorted.
        points.sort_unstable();
        Ring {
            points,
            nodes: members,
            vnodes,
        }
    }

    /// Member names, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The point on the circle a 16-byte content key maps to.
    pub fn key_point(key: &[u8; 16]) -> u64 {
        hash_bytes(key)
    }

    /// The owner of `key`, or `None` on an empty ring.
    pub fn owner(&self, key: &[u8; 16]) -> Option<&str> {
        self.owner_of_point(Self::key_point(key))
    }

    /// The owner of an arbitrary circle point.
    pub fn owner_of_point(&self, point: u64) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        // First virtual point at or after `point`, wrapping at the top.
        let idx = self.points.partition_point(|&(p, _)| p < point);
        let (_, node) = self.points[if idx == self.points.len() { 0 } else { idx }];
        Some(&self.nodes[node])
    }

    /// The node that takes over `node`'s ranges when it dies: its ring
    /// successor among the *remaining* members — i.e. for each of the
    /// dead node's virtual points, the owner in the ring without it.
    /// With many virtual points several survivors inherit ranges; the
    /// canonical adopter (who re-adopts the dead node's journal) is the
    /// owner of the dead node's *name point* in the survivor ring, so
    /// every member independently agrees on one adopter.
    pub fn adopter_for(&self, dead: &str) -> Option<String> {
        let survivors: Vec<String> = self
            .nodes
            .iter()
            .filter(|n| n.as_str() != dead)
            .cloned()
            .collect();
        if survivors.is_empty() {
            return None;
        }
        let survivor_ring = Ring::build(&survivors, self.vnodes);
        survivor_ring
            .owner_of_point(hash_bytes(dead.as_bytes()))
            .map(str::to_string)
    }

    /// Fraction of the 64-bit circle owned by `node` (0.0 when absent).
    pub fn owned_fraction(&self, node: &str) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let Some(target) = self.nodes.iter().position(|n| n == node) else {
            return 0.0;
        };
        if self.nodes.len() == 1 {
            return 1.0;
        }
        let mut owned: u128 = 0;
        for (i, &(p, n)) in self.points.iter().enumerate() {
            // The arc *ending* at point i (exclusive start at the
            // previous point) belongs to point i's node.
            let prev = if i == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            if n == target {
                owned += u128::from(p.wrapping_sub(prev));
            }
        }
        owned as f64 / 2f64.powi(64)
    }

    /// Serializes the ring parameters (members + vnodes; the points are
    /// derived, not shipped).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "nodes".to_string(),
                Value::Arr(self.nodes.iter().map(|n| Value::Str(n.clone())).collect()),
            ),
            ("vnodes".to_string(), Value::Int(self.vnodes as i128)),
        ])
    }

    /// Rebuilds a ring from [`Ring::to_value`] output. Key→owner maps
    /// identically to the original (pinned by proptest).
    ///
    /// # Errors
    /// A message when the document shape is wrong.
    pub fn from_value(v: &Value) -> Result<Ring, String> {
        let nodes: Vec<String> = v
            .get("nodes")
            .and_then(Value::as_arr)
            .ok_or("ring document missing 'nodes' array")?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "ring node must be a string".to_string())
            })
            .collect::<Result<_, _>>()?;
        let vnodes = v
            .get("vnodes")
            .and_then(Value::as_u64)
            .ok_or("ring document missing 'vnodes'")? as usize;
        Ok(Ring::build(&nodes, vnodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:91{i:02}")).collect()
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = Ring::build(&names(1), 64);
        assert_eq!(ring.owner(&[0u8; 16]), Some("10.0.0.0:9100"));
        assert!((ring.owned_fraction("10.0.0.0:9100") - 1.0).abs() < 1e-12);
        assert_eq!(ring.owned_fraction("absent:1"), 0.0);
    }

    #[test]
    fn build_is_order_insensitive() {
        let mut reversed = names(5);
        reversed.reverse();
        assert_eq!(Ring::build(&names(5), 32), Ring::build(&reversed, 32));
    }

    #[test]
    fn adopter_is_agreed_and_is_not_the_dead_node() {
        let ring = Ring::build(&names(4), 64);
        let adopter = ring.adopter_for("10.0.0.2:9102").unwrap();
        assert_ne!(adopter, "10.0.0.2:9102");
        assert!(ring.nodes().contains(&adopter));
        // Every member derives the same adopter from the same ring.
        let again = Ring::build(&names(4), 64).adopter_for("10.0.0.2:9102");
        assert_eq!(again.as_deref(), Some(adopter.as_str()));
    }

    #[test]
    fn fractions_sum_to_one() {
        let ring = Ring::build(&names(5), 64);
        let sum: f64 = ring.nodes().iter().map(|n| ring.owned_fraction(n)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }
}
