//! Deterministic randomized suite (SplitMix64-driven) for the virtual
//! file system: path round trips, write/read, copy and rename.

use cad_vfs::{Blob, FaultPlan, SplitMix64, Vfs, VfsError, VfsPath};

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

// ---------------------------------------------------------------------------
// Append: O_APPEND semantics, metering and fault adjudication
// ---------------------------------------------------------------------------

fn chunk(rng: &mut SplitMix64) -> Vec<u8> {
    let len = 1 + rng.below(200);
    rng.bytes(len)
}

#[test]
fn append_creates_missing_files_and_charges_only_the_appended_bytes() {
    let mut rng = SplitMix64::new(4);
    let mut fs = Vfs::new();
    fs.mkdir_all(&VfsPath::parse("/logs").unwrap()).unwrap();
    for case in 0..20 {
        let path = VfsPath::parse(&format!("/logs/f{case}")).unwrap();
        let mut expected = Vec::new();
        for n in 0..1 + rng.below(6) {
            let bytes = chunk(&mut rng);
            let existed = fs.exists(&path);
            assert_eq!(existed, n > 0, "only the first append creates the file");
            let before = fs.meter();
            fs.append(&path, &bytes).unwrap();
            let delta = fs.meter().since(&before);
            assert_eq!(delta.bytes_written, bytes.len() as u64, "case {case}");
            assert_eq!(delta.content_ops, 1, "one append is one content op");
            expected.extend_from_slice(&bytes);
        }
        assert_eq!(fs.read(&path).unwrap(), expected, "case {case}");
    }
}

#[test]
fn append_leaves_earlier_read_handles_untouched() {
    let mut rng = SplitMix64::new(5);
    let mut fs = Vfs::new();
    let path = VfsPath::parse("/f").unwrap();
    let first = chunk(&mut rng);
    fs.write(&path, first.clone()).unwrap();
    let handle = fs.read(&path).unwrap();
    let second = chunk(&mut rng);
    fs.append(&path, &second).unwrap();
    assert_eq!(handle, first, "a shared buffer is copied, not grown");
    let mut both = first;
    both.extend_from_slice(&second);
    assert_eq!(fs.read(&path).unwrap(), both);
}

#[test]
fn torn_append_keeps_the_old_content_plus_a_strict_prefix() {
    let mut rng = SplitMix64::new(6);
    for seed in 0..32 {
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/log").unwrap();
        let old = chunk(&mut rng);
        let new = chunk(&mut rng);
        fs.write(&path, old.clone()).unwrap();
        fs.arm_faults(FaultPlan::new(seed).torn_write(1));
        let before = fs.meter();
        assert!(matches!(
            fs.append(&path, &new),
            Err(VfsError::InjectedWriteFault(_))
        ));
        let after = fs.read(&path).unwrap();
        assert!(after.starts_with(&old), "seed {seed}: old content intact");
        let prefix = &after[old.len()..];
        assert!(prefix.len() < new.len(), "seed {seed}: the tear is strict");
        assert_eq!(prefix, &new[..prefix.len()], "seed {seed}");
        assert_eq!(fs.meter().since(&before).bytes_written, prefix.len() as u64);
        let stats = fs.disarm_faults().unwrap().stats();
        assert_eq!((stats.writes_seen, stats.faults_fired), (1, 1));
        assert_eq!(stats.bytes_admitted, prefix.len() as u64);
    }
}

#[test]
fn quota_fault_tears_an_append_at_the_quota() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..32 {
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/log").unwrap();
        let old = chunk(&mut rng);
        let first = chunk(&mut rng);
        let second = chunk(&mut rng);
        fs.write(&path, old.clone()).unwrap();
        // The quota admits `first` whole and `quota - first` bytes of
        // `second`.
        let spare = rng.below(second.len());
        let quota = (first.len() + spare) as u64;
        fs.arm_faults(FaultPlan::new(1).quota(quota));
        fs.append(&path, &first).unwrap();
        assert!(matches!(
            fs.append(&path, &second),
            Err(VfsError::QuotaExceeded(_))
        ));
        let mut expected = old;
        expected.extend_from_slice(&first);
        expected.extend_from_slice(&second[..spare]);
        assert_eq!(fs.read(&path).unwrap(), expected);
        assert_eq!(fs.fault_stats().unwrap().bytes_admitted, quota);
    }
}

#[test]
fn rejected_append_leaves_the_file_unchanged() {
    let mut rng = SplitMix64::new(8);
    let mut fs = Vfs::new();
    let path = VfsPath::parse("/log").unwrap();
    let old = chunk(&mut rng);
    fs.write(&path, old.clone()).unwrap();
    let mtime = fs.metadata(&path).unwrap().mtime;
    fs.arm_faults(FaultPlan::new(8).fail_write(1));
    assert!(matches!(
        fs.append(&path, &chunk(&mut rng)),
        Err(VfsError::InjectedWriteFault(_))
    ));
    assert_eq!(fs.read(&path).unwrap(), old);
    assert_eq!(fs.metadata(&path).unwrap().mtime, mtime);
    // A rejected append to a missing file creates nothing.
    let fresh = VfsPath::parse("/fresh").unwrap();
    fs.arm_faults(FaultPlan::new(8).fail_write(1));
    assert!(fs.append(&fresh, b"x").is_err());
    assert!(!fs.exists(&fresh));
}

#[test]
fn append_to_a_directory_or_under_a_missing_parent_is_a_typed_error() {
    let mut fs = Vfs::new();
    let dir = VfsPath::parse("/d").unwrap();
    fs.mkdir(&dir).unwrap();
    assert!(matches!(
        fs.append(&dir, b"x"),
        Err(VfsError::IsADirectory(_))
    ));
    assert!(matches!(
        fs.append(&VfsPath::parse("/missing/f").unwrap(), b"x"),
        Err(VfsError::NotFound(_))
    ));
    fs.write(&VfsPath::parse("/file").unwrap(), b"x".to_vec())
        .unwrap();
    assert!(matches!(
        fs.append(&VfsPath::parse("/file/f").unwrap(), b"x"),
        Err(VfsError::NotADirectory(_))
    ));
}

#[test]
fn appends_outside_the_fault_scope_are_not_counted() {
    let mut rng = SplitMix64::new(9);
    let mut fs = Vfs::new();
    let scoped = VfsPath::parse("/scoped").unwrap();
    let other = VfsPath::parse("/other").unwrap();
    fs.mkdir(&scoped).unwrap();
    fs.mkdir(&other).unwrap();
    let outside = other.join("log").unwrap();
    let inside = scoped.join("log").unwrap();
    fs.arm_faults(FaultPlan::new(9).torn_write(1).scope(&scoped));
    let mut expected = Vec::new();
    for _ in 0..5 {
        let bytes = chunk(&mut rng);
        fs.append(&outside, &bytes).unwrap();
        expected.extend_from_slice(&bytes);
    }
    assert_eq!(fs.read(&outside).unwrap(), expected);
    assert_eq!(fs.fault_stats().unwrap().writes_seen, 0);
    assert!(fs.append(&inside, &chunk(&mut rng)).is_err());
    let stats = fs.fault_stats().unwrap();
    assert_eq!((stats.writes_seen, stats.faults_fired), (1, 1));
}

/// A path over a three-letter alphabet, one to three levels deep, so
/// random ops keep hitting each other's files and directories.
fn small_path(rng: &mut SplitMix64) -> VfsPath {
    let mut path = VfsPath::root();
    for _ in 0..1 + rng.below(3) {
        path = path.join(["a", "b", "c"][rng.below(3)]).unwrap();
    }
    path
}

/// One random mutation; most fail on some trees, which is fine.
fn mutate(fs: &mut Vfs, rng: &mut SplitMix64) {
    let path = small_path(rng);
    let _ = match rng.below(8) {
        0 => fs.mkdir_all(&path),
        1 | 2 => {
            if let Some(parent) = path.parent() {
                let _ = fs.mkdir_all(&parent);
            }
            fs.write(&path, chunk(rng))
        }
        3 => fs.append(&path, &chunk(rng)),
        4 => fs.remove_file(&path),
        5 => fs.remove_dir(&path),
        6 => fs.remove_all(&path),
        _ => fs.rename(&path, &small_path(rng)),
    };
}

/// Every directory and every file with its content, in walk order.
fn tree(fs: &Vfs) -> Vec<(String, Option<Vec<u8>>)> {
    fn collect(fs: &Vfs, at: &VfsPath, out: &mut Vec<(String, Option<Vec<u8>>)>) {
        for name in fs.read_dir(at).unwrap() {
            let child = at.join(&name).unwrap();
            match fs.read(&child) {
                Ok(data) => out.push((child.to_string(), Some(data.as_slice().to_vec()))),
                Err(_) => {
                    out.push((child.to_string(), None));
                    collect(fs, &child, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    collect(fs, &VfsPath::root(), &mut out);
    out
}

/// The reported changes, applied in order to the tree as it was when
/// the window began, reproduce the tree as it is now — window after
/// window.
#[test]
fn tracked_changes_replay_onto_the_window_start() {
    use cad_vfs::Change;
    for seed in 0..40 {
        let mut rng = SplitMix64::new(0xC4A7_0000 + seed);
        let mut fs = Vfs::new();
        assert!(fs.changes().is_none(), "untracked by default");
        for _ in 0..20 {
            mutate(&mut fs, &mut rng);
        }
        for window in 0..4 {
            fs.track_changes();
            let mut replica = fs.clone();
            for _ in 0..rng.below(30) {
                mutate(&mut fs, &mut rng);
            }
            for change in fs.changes().expect("tracking") {
                match change {
                    Change::Removed(path) => {
                        if replica.exists(&path) {
                            replica.remove_all(&path).unwrap();
                        }
                    }
                    Change::Dir(path) => replica.mkdir_all(&path).unwrap(),
                    Change::File(path, data) => {
                        replica.mkdir_all(&path.parent().unwrap()).unwrap();
                        replica.write(&path, data).unwrap();
                    }
                }
            }
            assert_eq!(tree(&replica), tree(&fs), "seed {seed} window {window}");
        }
    }
}

/// `charge_walk` charges exactly what a pre-order walk of the tree
/// (`read_dir` per directory, `metadata` per entry, `read` per file)
/// charges, whatever mutations built the tree.
#[test]
fn charge_walk_costs_what_a_whole_tree_walk_costs() {
    fn walk(fs: &Vfs, at: &VfsPath) {
        for name in fs.read_dir(at).unwrap() {
            let child = at.join(&name).unwrap();
            if fs.metadata(&child).unwrap().kind == cad_vfs::NodeKind::Directory {
                walk(fs, &child);
            } else {
                fs.read(&child).unwrap();
            }
        }
    }
    for seed in 0..40 {
        let mut rng = SplitMix64::new(0x3A1C_0000 + seed);
        let mut fs = Vfs::new();
        for step in 0..60 {
            mutate(&mut fs, &mut rng);
            if step % 10 == 0 {
                let _ = fs.copy_tree(&small_path(&mut rng), &small_path(&mut rng));
            }
            let before = fs.meter();
            walk(&fs, &VfsPath::root());
            let walked = fs.meter().since(&before);
            let before = fs.meter();
            fs.charge_walk();
            assert_eq!(fs.meter().since(&before), walked, "seed {seed} step {step}");
        }
    }
}
