//! Index partitioning (Section 2.4).
//!
//! *"The entire image index data is divided into multiple partitions by
//! hashing the image's URL. Each partition can have multiple copies for
//! availability. A partition is handled by a single searcher node. A broker
//! connects to a subset of searchers."*
//!
//! [`PartitionMap`] owns those assignments: URL → partition (via a routing
//! table indexed by [`ImageKey::partition`]), and partition → broker group,
//! so every layer agrees on who owns what.
//!
//! The map is no longer a pure modulus: to support **online splits** it
//! routes through an extendible-hashing style table whose length doubles on
//! every [`PartitionMap::split`]. A key that hashed to cell `c` under a
//! table of length `m` hashes to `c` or `c + m` under length `2m` (both
//! aliases of the same cell before the doubling), so doubling the table and
//! redirecting only the upper-half aliases of the split partition moves
//! exactly half of that partition's key space to the new partition and
//! leaves every other partition's ownership untouched.

use jdvs_storage::model::ImageKey;
use serde::{Deserialize, Serialize};

/// The cluster-wide partition layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionMap {
    num_broker_groups: usize,
    /// `groups[p]` is the broker group owning partition `p`. Grows by one
    /// on every split (the new half joins its parent's group, so each
    /// group's partition list stays stable-ordered).
    groups: Vec<usize>,
    /// Routing table: `table[key.partition(table.len())]` is the owning
    /// partition. Starts as the identity over the configured partitions
    /// and doubles on every split.
    table: Vec<usize>,
}

impl PartitionMap {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or there are more broker groups than
    /// partitions (a group with nothing to own is a configuration bug).
    pub fn new(num_partitions: usize, num_broker_groups: usize) -> Self {
        assert!(num_partitions > 0, "num_partitions must be positive");
        assert!(num_broker_groups > 0, "num_broker_groups must be positive");
        assert!(
            num_broker_groups <= num_partitions,
            "more broker groups ({num_broker_groups}) than partitions ({num_partitions})"
        );
        Self {
            num_broker_groups,
            groups: (0..num_partitions).map(|p| p % num_broker_groups).collect(),
            table: (0..num_partitions).collect(),
        }
    }

    /// Reassembles a layout from its serialized parts (the inverse of
    /// [`PartitionMap::groups`] + [`PartitionMap::table`]; used by the
    /// durable topology's partition-map file so splits survive restarts).
    ///
    /// `None` for structurally invalid parts: an empty vector, an entry out
    /// of range, or a broker group that owns no partition.
    pub fn from_parts(
        num_broker_groups: usize,
        groups: Vec<usize>,
        table: Vec<usize>,
    ) -> Option<Self> {
        if table.is_empty() || num_broker_groups > groups.len() {
            return None;
        }
        let mut owns = vec![false; num_broker_groups];
        for &g in &groups {
            *owns.get_mut(g)? = true;
        }
        let valid = owns.iter().all(|&o| o) && table.iter().all(|&p| p < groups.len());
        valid.then_some(Self {
            num_broker_groups,
            groups,
            table,
        })
    }

    /// Total partitions.
    pub fn num_partitions(&self) -> usize {
        self.groups.len()
    }

    /// The per-partition broker-group assignment (`groups()[p]` owns `p`).
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }

    /// The routing table (slot → owning partition).
    pub fn table(&self) -> &[usize] {
        &self.table
    }

    /// Total broker groups.
    pub fn num_broker_groups(&self) -> usize {
        self.num_broker_groups
    }

    /// The partition an image belongs to.
    pub fn partition_of(&self, key: ImageKey) -> usize {
        self.table[key.partition(self.table.len())]
    }

    /// The partition an image URL belongs to.
    pub fn partition_of_url(&self, url: &str) -> usize {
        self.partition_of(ImageKey::from_url(url))
    }

    /// The broker group that owns a partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn broker_group_of(&self, partition: usize) -> usize {
        assert!(partition < self.groups.len(), "partition out of range");
        self.groups[partition]
    }

    /// The partitions owned by a broker group, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn partitions_of_group(&self, group: usize) -> Vec<usize> {
        assert!(group < self.num_broker_groups, "broker group out of range");
        (0..self.groups.len())
            .filter(|&p| self.groups[p] == group)
            .collect()
    }

    /// Splits `partition` in two: the routing table doubles, the upper-half
    /// aliases of the split partition's cells are redirected to a new
    /// partition id (returned), and the new half joins its parent's broker
    /// group. Every key either keeps its old owner or moves from `partition`
    /// to the new id — no other partition's key space is disturbed.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn split(&mut self, partition: usize) -> usize {
        assert!(partition < self.groups.len(), "partition out of range");
        let sibling = self.groups.len();
        let m = self.table.len();
        let mut doubled = Vec::with_capacity(2 * m);
        doubled.extend_from_slice(&self.table);
        doubled.extend(
            self.table
                .iter()
                .map(|&p| if p == partition { sibling } else { p }),
        );
        self.table = doubled;
        self.groups.push(self.groups[partition]);
        sibling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_partition_has_exactly_one_group() {
        let map = PartitionMap::new(10, 3);
        let mut owned = vec![0usize; 10];
        for g in 0..3 {
            for p in map.partitions_of_group(g) {
                owned[p] += 1;
                assert_eq!(map.broker_group_of(p), g, "assignment must be consistent");
            }
        }
        assert!(
            owned.iter().all(|&c| c == 1),
            "each partition owned once: {owned:?}"
        );
    }

    #[test]
    fn url_routing_is_stable_and_in_range() {
        let map = PartitionMap::new(8, 2);
        for i in 0..100 {
            let url = format!("https://img.jd.com/{i}.jpg");
            let p = map.partition_of_url(&url);
            assert!(p < 8);
            assert_eq!(p, map.partition_of_url(&url), "stable routing");
            assert_eq!(p, map.partition_of(ImageKey::from_url(&url)));
        }
    }

    #[test]
    fn groups_get_balanced_partition_counts() {
        let map = PartitionMap::new(20, 6);
        let sizes: Vec<usize> = (0..6).map(|g| map.partitions_of_group(g).len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "round-robin is balanced: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 20);
    }

    #[test]
    fn single_group_owns_everything() {
        let map = PartitionMap::new(5, 1);
        assert_eq!(map.partitions_of_group(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "more broker groups")]
    fn more_groups_than_partitions_panics() {
        PartitionMap::new(2, 3);
    }

    #[test]
    #[should_panic(expected = "partition out of range")]
    fn out_of_range_partition_panics() {
        PartitionMap::new(2, 1).broker_group_of(2);
    }

    #[test]
    fn split_moves_keys_only_between_parent_and_sibling() {
        let before = PartitionMap::new(4, 2);
        let mut after = before.clone();
        let sibling = after.split(1);
        assert_eq!(sibling, 4);
        assert_eq!(after.num_partitions(), 5);
        assert_eq!(after.broker_group_of(sibling), after.broker_group_of(1));
        let mut moved = 0;
        for i in 0..2000 {
            let key = ImageKey::from_url(&format!("img/{i}.jpg"));
            let was = before.partition_of(key);
            let now = after.partition_of(key);
            if was == now {
                continue;
            }
            assert_eq!(was, 1, "only the split partition loses keys");
            assert_eq!(now, sibling, "lost keys land on the sibling");
            moved += 1;
        }
        assert!(moved > 0, "the split must actually move keys");
    }

    #[test]
    fn repeated_splits_keep_routing_total() {
        let mut map = PartitionMap::new(3, 1);
        let a = map.split(0);
        let b = map.split(0);
        let c = map.split(a);
        assert_eq!(map.num_partitions(), 6);
        for i in 0..500 {
            let p = map.partition_of_url(&format!("u/{i}.png"));
            assert!(p < map.num_partitions());
        }
        // All splits joined group 0 (the only group).
        assert_eq!(map.partitions_of_group(0), vec![0, 1, 2, a, b, c]);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_an_idle_group() {
        let mut map = PartitionMap::new(4, 2);
        map.split(1);
        let rebuilt = PartitionMap::from_parts(2, map.groups().to_vec(), map.table().to_vec());
        assert_eq!(rebuilt, Some(map));
        // Group 1 would own nothing: its broker could not be assembled.
        assert_eq!(PartitionMap::from_parts(2, vec![0, 0], vec![0, 1]), None);
    }

    #[test]
    fn sibling_appends_to_the_parent_groups_list() {
        let mut map = PartitionMap::new(4, 2);
        // Partition 1 lives in group 1; its sibling must join group 1 and
        // append after the existing members (stable order for brokers).
        let sibling = map.split(1);
        assert_eq!(map.partitions_of_group(1), vec![1, 3, sibling]);
        assert_eq!(map.partitions_of_group(0), vec![0, 2]);
    }
}
