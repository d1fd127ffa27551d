//! Property-based tests for addressing over the whole coordinate space:
//! the text codec round-trips and the column never reaches a projection.

use proptest::prelude::*;

use cordial_topology::{
    BankAddress, BankGroup, BankIndex, CellAddress, Channel, ColId, HbmSocket, MicroLevel, NodeId,
    NpuId, PseudoChannel, RowId, StackId,
};

fn arb_cell() -> impl Strategy<Value = CellAddress> {
    (
        0u32..5000,
        0u8..8,
        0u8..2,
        0u8..2,
        0u8..8,
        0u8..2,
        0u8..4,
        0u8..4,
        0u32..32_768,
        0u16..128,
    )
        .prop_map(
            |(node, npu, hbm, sid, ch, pch, bg, bank, row, col)| CellAddress {
                bank: BankAddress {
                    node: NodeId(node),
                    npu: NpuId(npu),
                    hbm: HbmSocket(hbm),
                    sid: StackId(sid),
                    channel: Channel(ch),
                    pseudo_channel: PseudoChannel(pch),
                    bank_group: BankGroup(bg),
                    bank: BankIndex(bank),
                },
                row: RowId(row),
                col: ColId(col),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn text_codec_round_trips(cell in arb_cell()) {
        let parsed: CellAddress = cell.to_string().parse().unwrap();
        prop_assert_eq!(parsed, cell);
        let bank: BankAddress = cell.bank.to_string().parse().unwrap();
        prop_assert_eq!(bank, cell.bank);
    }

    #[test]
    fn column_never_changes_a_projection(cell in arb_cell()) {
        // Two cells that differ only in column share every projection level.
        let sibling = CellAddress {
            col: ColId((cell.col.index() + 1) % 128),
            ..cell
        };
        for level in MicroLevel::ALL {
            prop_assert_eq!(cell.project(level), sibling.project(level));
        }
    }
}
