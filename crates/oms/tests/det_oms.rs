//! Deterministic randomized suite (SplitMix64-driven): transaction
//! rollback and commit and image round trips under random mutation
//! histories.

use cad_vfs::SplitMix64;
use oms::{persist, AttrType, Cardinality, Database, OmsResult, Schema, SchemaBuilder, Value};

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    let node = b
        .class(
            "Node",
            &[("label", AttrType::Text), ("weight", AttrType::Int)],
        )
        .unwrap();
    b.relationship("edge", node, node, Cardinality::ManyToMany)
        .unwrap();
    b.build()
}

/// Applies `n` random mutations drawn from the generator.
fn mutate(db: &mut Database, rng: &mut SplitMix64, n: usize) {
    let node = db.schema().class_by_name("Node").unwrap();
    let edge = db.schema().relationship_by_name("edge").unwrap();
    for _ in 0..n {
        let ids = db.objects_of(node);
        let pick = |rng: &mut SplitMix64| {
            if ids.is_empty() {
                None
            } else {
                Some(ids[rng.below(ids.len())])
            }
        };
        match rng.below(6) {
            0 => {
                db.create(node).unwrap();
            }
            1 => {
                if let Some(id) = pick(rng) {
                    let len = rng.below(7);
                    let label = rng.ident(len.max(1));
                    db.set(id, "label", Value::from(label)).unwrap();
                }
            }
            2 => {
                if let Some(id) = pick(rng) {
                    let w = rng.next_u64() as i64;
                    db.set(id, "weight", Value::from(w)).unwrap();
                }
            }
            3 => {
                if let (Some(x), Some(y)) = (pick(rng), pick(rng)) {
                    let _ = db.link(edge, x, y);
                }
            }
            4 => {
                if let (Some(x), Some(y)) = (pick(rng), pick(rng)) {
                    let _ = db.unlink(edge, x, y);
                }
            }
            _ => {
                if let Some(id) = pick(rng) {
                    let _ = db.delete(id);
                }
            }
        }
    }
}

#[test]
fn abort_restores_exact_image() {
    let mut rng = SplitMix64::new(0x0175_1995);
    for _ in 0..25 {
        let mut db = Database::new(schema());
        mutate(&mut db, &mut rng, 20);
        let before = persist::dump(&db);
        db.begin().unwrap();
        mutate(&mut db, &mut rng, 30);
        db.abort().unwrap();
        assert_eq!(persist::dump(&db), before);
    }
}

#[test]
fn image_round_trip() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..25 {
        let mut db = Database::new(schema());
        mutate(&mut db, &mut rng, 40);
        let image = persist::dump(&db);
        let restored = persist::parse(schema(), &image).unwrap();
        assert_eq!(persist::dump(&restored), image);
    }
}

/// Committed transactions behave exactly like unjournalled mutations.
#[test]
fn commit_equals_plain_apply() {
    let mut rng = SplitMix64::new(9);
    for _ in 0..25 {
        let seed = rng.next_u64();
        let mut plain = Database::new(schema());
        mutate(&mut plain, &mut SplitMix64::new(seed), 30);
        let mut txn = Database::new(schema());
        let result: OmsResult<()> = txn.transact(|db| {
            mutate(db, &mut SplitMix64::new(seed), 30);
            Ok(())
        });
        assert!(result.is_ok(), "seed {seed}");
        assert_eq!(persist::dump(&txn), persist::dump(&plain), "seed {seed}");
    }
}
