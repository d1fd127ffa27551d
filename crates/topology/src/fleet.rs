//! Fleet-level layout: how many nodes, NPUs and HBM stacks a cluster has,
//! and the [`DeviceId`] that names one HBM device.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::address::{BankAddress, HbmSocket, NodeId, NpuId};
use crate::geometry::HbmGeometry;

/// Layout of an LLM-training cluster's memory fleet.
///
/// The paper's platform pairs 8 NPUs per compute node with 2 HBM sockets per
/// NPU (§II-A); the studied fleet exceeds 10,000 NPUs / 80,000 HBMs. The
/// defaults here describe a scaled-down but structurally identical fleet so
/// that examples and tests run quickly; experiments scale `nodes` up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of compute nodes.
    pub nodes: u32,
    /// NPUs per node (8 on the paper's platform).
    pub npus_per_node: u8,
    /// HBM sockets per NPU (2 on the paper's platform).
    pub hbms_per_npu: u8,
    /// Geometry of each HBM stack.
    pub geometry: HbmGeometry,
}

impl FleetConfig {
    /// A structurally faithful small fleet (16 nodes × 8 NPUs × 2 HBMs).
    pub fn small() -> Self {
        Self {
            nodes: 16,
            npus_per_node: 8,
            hbms_per_npu: 2,
            geometry: HbmGeometry::hbm2e_8hi(),
        }
    }

    /// A fleet with the given node count and paper-standard ratios.
    pub fn with_nodes(nodes: u32) -> Self {
        Self {
            nodes,
            ..Self::small()
        }
    }

    /// Total NPU count.
    pub fn total_npus(&self) -> u64 {
        self.nodes as u64 * self.npus_per_node as u64
    }

    /// Total HBM stack count.
    pub fn total_hbms(&self) -> u64 {
        self.total_npus() * self.hbms_per_npu as u64
    }

    /// Total bank count across the fleet.
    pub fn total_banks(&self) -> u64 {
        self.total_hbms() * self.geometry.banks_per_hbm() as u64
    }

    /// Iterates over every NPU in the fleet.
    pub fn npus(&self) -> impl Iterator<Item = NpuRef> + '_ {
        let per_node = self.npus_per_node;
        (0..self.nodes).flat_map(move |node| {
            (0..per_node).map(move |npu| NpuRef {
                node: NodeId(node),
                npu: NpuId(npu),
            })
        })
    }

    /// Returns true when `bank` lies inside this fleet (node/NPU/socket in
    /// range and intra-HBM components valid for the geometry).
    pub fn contains(&self, bank: &BankAddress) -> bool {
        bank.node.0 < self.nodes
            && bank.npu.0 < self.npus_per_node
            && bank.hbm.0 < self.hbms_per_npu
            && self.geometry.validate_bank(bank).is_ok()
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Reference to one NPU in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NpuRef {
    /// Hosting node.
    pub node: NodeId,
    /// NPU index within the node.
    pub npu: NpuId,
}

/// Stable identity of one HBM device: the (node, NPU, HBM-socket) triple,
/// the unit of supervision, quarantine, eviction and storage.
///
/// Every bank-level address maps to exactly one device via [`DeviceId::of`].
/// The fleet host keeps one monitor per device, the serving daemon routes
/// events to shards by it and the store files checkpoints under it. The
/// derived `Ord` (node, then NPU, then socket) makes `BTreeMap<DeviceId, _>`
/// iteration, and therefore every fleet-level aggregate, deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId {
    /// Compute node hosting the device.
    pub node: NodeId,
    /// NPU index within the node.
    pub npu: NpuId,
    /// HBM socket on the NPU.
    pub hbm: HbmSocket,
}

impl DeviceId {
    /// The device that owns a bank.
    pub fn of(bank: &BankAddress) -> Self {
        Self {
            node: bank.node,
            npu: bank.npu,
            hbm: bank.hbm,
        }
    }

    /// A stable per-device salt for seeding device-local RNG streams
    /// (breaker backoff jitter, per-device fault injection). Injective for
    /// any realistic fleet (< 2^48 nodes, < 256 NPUs/sockets).
    pub fn salt(&self) -> u64 {
        (u64::from(self.node.index()) << 16)
            | (u64::from(self.npu.index()) << 8)
            | u64::from(self.hbm.index())
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.node, self.npu, self.hbm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{ColId, RowId};

    #[test]
    fn totals_multiply_out() {
        let fleet = FleetConfig::small();
        assert_eq!(fleet.total_npus(), 16 * 8);
        assert_eq!(fleet.total_hbms(), 16 * 8 * 2);
        assert_eq!(fleet.total_banks(), 16 * 8 * 2 * 512);
    }

    #[test]
    fn npu_iteration_covers_fleet_exactly_once() {
        let fleet = FleetConfig::with_nodes(3);
        let npus: Vec<_> = fleet.npus().collect();
        assert_eq!(npus.len() as u64, fleet.total_npus());
        let mut dedup = npus.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), npus.len());
    }

    #[test]
    fn contains_rejects_out_of_fleet_banks() {
        let fleet = FleetConfig::with_nodes(2);
        let mut bank = BankAddress::default();
        assert!(fleet.contains(&bank));
        bank.node = NodeId(2);
        assert!(!fleet.contains(&bank));
        bank.node = NodeId(1);
        assert!(fleet.contains(&bank));
        bank.npu = NpuId(8);
        assert!(!fleet.contains(&bank));
    }

    #[test]
    fn device_of_a_bank_ignores_sub_device_coordinates() {
        let bank = BankAddress::default();
        let cell = bank.cell(RowId(5), ColId(2));
        assert_eq!(DeviceId::of(&cell.bank), DeviceId::of(&bank));
    }

    #[test]
    fn salts_are_distinct_across_neighbouring_devices() {
        let mut a = BankAddress::default();
        let mut b = BankAddress::default();
        a.npu = NpuId(1);
        b.hbm = HbmSocket(1);
        let (da, db) = (DeviceId::of(&a), DeviceId::of(&b));
        assert_ne!(da.salt(), db.salt());
        assert_ne!(da.salt(), DeviceId::of(&BankAddress::default()).salt());
    }

    #[test]
    fn display_is_the_slash_joined_address() {
        let id = DeviceId::of(&BankAddress::default());
        assert_eq!(id.to_string(), "node0/npu0/hbm0");
    }
}
