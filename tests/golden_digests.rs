//! Golden digests: every value below was computed at the commit *before*
//! the SHA-256 kernel, one-shot node hashing and allocation-free
//! `Value::digest` landed, so "byte-identical digests" is a test. Each
//! fails if framing, padding, domain separation or a kernel drifts.

use ahl::consensus::pbft::PbftBlock;
use ahl::consensus::Request;
use ahl::crypto::{hmac_sha256, sha256, Hash};
use ahl::ledger::{kvstore, Condition, Mutation, Op, StateOp, TxId, Value};
use ahl::simkit::SimTime;
use ahl::store::SparseMerkleTree;

fn value_of(i: u64) -> Hash {
    sha256(i.to_be_bytes())
}

fn thousand_keys() -> SparseMerkleTree {
    SparseMerkleTree::build((0..1000u64).map(|i| (format!("key-{i}"), value_of(i))))
}

#[test]
fn smt_root_of_fixed_build() {
    assert_eq!(
        thousand_keys().root_hash().to_hex(),
        "0ff3de21e3d8d981c9ad9548400a34081e58a9dbb59b489244a14657a2553809"
    );
}

#[test]
fn smt_root_after_fixed_script() {
    let mut smt = thousand_keys();
    for i in 1000..1100u64 {
        smt.insert(&format!("key-{i}"), value_of(i));
    }
    for i in (0..1100u64).step_by(7) {
        smt.insert(&format!("key-{i}"), value_of(i + 5000));
    }
    for i in (0..1100u64).step_by(11) {
        assert!(smt.remove(&format!("key-{i}")));
    }
    assert!(!smt.remove("never-inserted"));
    assert_eq!(smt.len(), 1000);
    assert_eq!(
        smt.root_hash().to_hex(),
        "b690a1eae9a94ca88509c6e9f3621353267965ed31f51d5ebc8363de7d96f0a1"
    );
}

#[test]
fn pbft_block_digest() {
    let reqs = (0..3u64)
        .map(|i| Request {
            id: Request::make_id(7, i as u32),
            client: 7,
            op: Op::Direct {
                txid: TxId(40 + i),
                op: kvstore::kv_write(&[i, i + 100], 16),
            },
            submitted: SimTime::ZERO,
        })
        .collect();
    assert_eq!(
        PbftBlock::new(2, 9, 1, reqs).digest.to_hex(),
        "a6a8715217d0a3b19f8fdf7ae8dea98e74bbf1f48ac42e7d05b2620f04e18988"
    );
}

#[test]
fn op_digest_over_every_value_variant() {
    let op = Op::Direct {
        txid: TxId(77),
        op: StateOp {
            conditions: vec![Condition::IntAtLeast {
                key: "a".into(),
                min: 5,
            }],
            mutations: vec![
                ("a".into(), Mutation::Set(Value::Int(9))),
                ("b".into(), Mutation::Set(Value::Bytes(vec![1, 2, 3]))),
                ("c".into(), Mutation::Set(Value::Bool(false))),
                (
                    "d".into(),
                    Mutation::Set(Value::Opaque { size: 4096, tag: 3 }),
                ),
                ("e".into(), Mutation::Add(-2)),
                ("f".into(), Mutation::Delete),
            ],
        },
    };
    assert_eq!(
        op.digest().to_hex(),
        "d6211736b40e2db159ed22e931dc24d79fecd4a815fcceb36ded80c3b22e1b89"
    );
}

#[test]
fn hmac_digest() {
    assert_eq!(
        hmac_sha256(b"golden key", b"golden message").to_hex(),
        "a62a9dc687a5b2af51de8d3723192a2a0cc572bfde1cbfaba97029db5509fc58"
    );
}

#[test]
fn value_digest_per_variant() {
    let cases = [
        (
            Value::Int(-42),
            "34bbd9a7bb86410611186e8cfd3eadccbee1df0b0ac380adf6c2457972fc135c",
        ),
        (
            Value::Bytes(vec![7; 16]),
            "6d87583c41f7be9e3391a30858617b45ca350acb843d18caee9772c22b59e739",
        ),
        (
            Value::Bytes((0..=199).collect()),
            "6033f99e14a67766c927965e5c71ea4ff568c1f8f7a6dce0b0d8ffb2b43b1059",
        ),
        (
            Value::Bytes(Vec::new()),
            "bd87b2cda99df5b642ac9c0a97d3bc76f9921e2cce16058faa44bc954dbb065f",
        ),
        (
            Value::Bool(true),
            "06bb465e3930cb3068ce3fcbc396596ac5c6e60cd3b281d6595913e4fc22382e",
        ),
        (
            Value::Opaque {
                size: 1 << 30,
                tag: 99,
            },
            "27f5ff84c3b81995d5de52c6fe8c49c9c3bdfcda1b7cff00044a892e66e9581b",
        ),
    ];
    for (value, want) in cases {
        assert_eq!(value.digest().to_hex(), want, "{value:?}");
    }
}
