//! Deterministic randomized suite (SplitMix64-driven) for the virtual
//! file system: path round trips, write/read, copy and rename.

use cad_vfs::{Blob, SplitMix64, Vfs, VfsPath};

fn random_path(rng: &mut SplitMix64) -> VfsPath {
    let mut path = VfsPath::root();
    let depth = 1 + rng.below(4);
    for _ in 0..depth {
        let len = 1 + rng.below(8);
        path = path
            .join(&rng.ident(len))
            .expect("generated names are valid");
    }
    path
}

#[test]
fn display_parse_round_trip() {
    let mut rng = SplitMix64::new(0xDA7E_1995);
    for _ in 0..200 {
        let p = random_path(&mut rng);
        let reparsed = VfsPath::parse(&p.to_string()).expect("rendered paths parse");
        assert_eq!(p, reparsed, "{p}");
    }
}

#[test]
fn write_read_round_trip() {
    let mut rng = SplitMix64::new(1);
    let mut fs = Vfs::new();
    for case in 0..100 {
        // Each case gets its own subtree so random names can never
        // collide with a file written by an earlier case.
        let base = VfsPath::root().join(&format!("case{case}")).unwrap();
        let mut p = base.clone();
        for component in random_path(&mut rng).components() {
            p = p.join(component).unwrap();
        }
        let len = rng.below(512);
        let content = rng.bytes(len);
        if let Some(parent) = p.parent() {
            fs.mkdir_all(&parent).expect("mkdir_all");
        }
        fs.write(&p, content.clone()).expect("write");
        assert_eq!(fs.read(&p).expect("read"), content, "case {case} at {p}");
    }
}

#[test]
fn copy_tree_is_faithful_and_shares_buffers() {
    let mut rng = SplitMix64::new(2);
    let src = VfsPath::parse("/src").unwrap();
    let dst = VfsPath::parse("/dst").unwrap();
    let mut fs = Vfs::new();
    fs.mkdir_all(&src).unwrap();
    let mut expected = Vec::new();
    for i in 0..20 {
        let p = src.join(&format!("f{i}")).unwrap();
        let len = 1 + rng.below(256);
        let content = rng.bytes(len);
        fs.write(&p, content.clone()).unwrap();
        expected.push((format!("f{i}"), content));
    }
    let before = Blob::materializations();
    fs.copy_tree(&src, &dst).unwrap();
    // The copy pays modeled ticks but duplicates no host bytes.
    assert_eq!(
        Blob::materializations(),
        before,
        "copy_tree must not deep-copy"
    );
    for (name, content) in &expected {
        let copied = fs.read(&dst.join(name).unwrap()).unwrap();
        assert_eq!(&copied, content);
        assert!(Blob::ptr_eq(
            &copied,
            &fs.read(&src.join(name).unwrap()).unwrap()
        ));
    }
    assert_eq!(fs.tree_size(&src).unwrap(), fs.tree_size(&dst).unwrap());
}

#[test]
fn rename_preserves_bytes() {
    let mut rng = SplitMix64::new(3);
    for _ in 0..50 {
        let mut fs = Vfs::new();
        let len = rng.below(256);
        let content = rng.bytes(len);
        let a = VfsPath::parse("/a").unwrap();
        let b = VfsPath::parse("/b").unwrap();
        fs.write(&a, content.clone()).unwrap();
        fs.rename(&a, &b).unwrap();
        assert!(!fs.exists(&a));
        assert_eq!(fs.read(&b).unwrap(), content);
    }
}
