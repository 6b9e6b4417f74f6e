//! Every record grammar of the stack, one table each: a valid line
//! plus variants that reorder, duplicate, add, drop or mis-armour a
//! key, each with the verdict its reader gives. The grammars are the
//! op and event lines, the wire request and response frames, the
//! chain manifest (`ck.manifest`), the journal segment header, the
//! sharded envelope record, the router image (`router.meta`), the
//! epoch metadata (`epoch.meta`) and the OMS and FMCAD image and delta
//! records.
//!
//! A seeded mutation oracle then bends op and event lines one field at
//! a time; each mutant must be refused or be canonical.
//!
//! Formats that live inside a backup are judged through recovery: one
//! line of a freshly written backup is replaced (the files that carry
//! a manifest fingerprint are re-fingerprinted, so only the record is
//! wrong) and the restore must succeed or fail. Then the files of the
//! recorded fixtures must parse and re-render to the bytes on disk
//! wherever a public reader and writer exist; the private grammars
//! (manifest, segment header, envelope, router image, epoch metadata,
//! FMCAD image) re-render in the `hybrid` crate's own unit tests.

mod samples;

use std::path::Path;

use cad_net::{Request, Response};
use cad_vfs::{Blob, Vfs, VfsPath};
use hybrid::{shard_of_name, Engine, Event, HybridError, Op, ShardedService, ToolOutput};
use jcf::{CellVersionId, ProjectId, VariantId};
use oms::persist;
use test_support::SplitMix64;

/// A named line and whether its reader must accept it.
type Case = (&'static str, String, bool);

/// Judges every case under `accepts` and panics naming each one whose
/// verdict differs from the expected one.
fn judge<T: std::fmt::Debug>(
    format: &str,
    cases: Vec<(&'static str, T, bool)>,
    mut accepts: impl FnMut(&T) -> bool,
) {
    let wrong: Vec<String> = cases
        .into_iter()
        .filter(|(_, line, ok)| accepts(line) != *ok)
        .map(|(what, line, ok)| {
            let verdict = if ok { "accepted" } else { "refused" };
            format!("{what} {line:?} must be {verdict}")
        })
        .collect();
    assert!(wrong.is_empty(), "{format}:\n{}", wrong.join("\n"));
}

/// Regroups `(what, old, new, ok)` cases for [`judge`].
fn pairs<'a>(
    cases: Vec<(&'static str, &'a str, String, bool)>,
) -> Vec<(&'static str, (&'a str, String), bool)> {
    cases
        .into_iter()
        .map(|(what, old, new, ok)| (what, (old, new), ok))
        .collect()
}

fn text(fs: &Vfs, path: &VfsPath) -> String {
    String::from_utf8(fs.read(path).unwrap().to_vec()).unwrap()
}

/// `fs` with the whole line `old` of `path` replaced by `new` (which
/// may span several lines, or be empty to drop the line).
fn with_line(fs: &Vfs, path: &VfsPath, old: &str, new: &str) -> Vfs {
    let body = text(fs, path);
    let lines: Vec<&str> = body.lines().collect();
    let at = lines
        .iter()
        .position(|l| *l == old)
        .unwrap_or_else(|| panic!("{path}: no line {old:?}"));
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        let line = if i == at { new } else { line };
        if !line.is_empty() {
            out.push_str(line);
            out.push('\n');
        }
    }
    let mut fs = fs.clone();
    fs.write(path, out.into_bytes()).unwrap();
    fs
}

fn hex_path(path: &str) -> String {
    persist::hex(path.as_bytes())
}

/// `line` with every field value upper-cased; the kind and the keys
/// stay as they are.
fn upper_values(line: &str) -> String {
    line.split('|')
        .enumerate()
        .map(|(i, part)| match part.split_once('=') {
            Some((key, value)) if i > 0 => format!("{key}={}", value.to_uppercase()),
            _ => part.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("|")
}

// --- lines that travel on their own -----------------------------------------

#[test]
fn op_lines() {
    let valid = Op::CreateCell {
        project: ProjectId::from_raw(3),
        name: "adder".into(),
    }
    .to_line();
    assert_eq!(valid, "create-cell|project=3|name=6164646572");
    let cases: Vec<Case> = vec![
        ("valid", valid.clone(), true),
        // Refused since the op reader walks the declared fields in
        // order: one layout per kind, as the writer emits it.
        (
            "reordered",
            "create-cell|name=6164646572|project=3".into(),
            false,
        ),
        (
            "duplicated",
            "create-cell|project=3|project=3|name=6164646572".into(),
            false,
        ),
        ("added", format!("{valid}|extra=1"), false),
        ("dropped", "create-cell|project=3".into(), false),
        (
            "signed number",
            "create-cell|project=+3|name=6164646572".into(),
            false,
        ),
        (
            "leading zero",
            "create-cell|project=03|name=6164646572".into(),
            false,
        ),
        (
            "upper-case hex",
            "create-cell|project=3|name=7A".into(),
            false,
        ),
        ("odd armour", "create-cell|project=3|name=616".into(), false),
        (
            "bad armour",
            "create-cell|project=3|name=61zz".into(),
            false,
        ),
        (
            "signed armour",
            "create-cell|project=3|name=+164".into(),
            false,
        ),
        ("field without =", format!("{valid}|extra"), false),
        (
            "unknown kind",
            "create-cellar|project=3|name=61".into(),
            false,
        ),
    ];
    judge("op", cases, |l| Op::parse_line(l).is_ok());
}

#[test]
fn event_lines() {
    let valid =
        Event::CellVersionCreated(CellVersionId::from_raw(3), VariantId::from_raw(4)).to_line();
    assert_eq!(valid, "cell-version-created|cv=3|variant=4");
    let read = Event::DesignDataRead {
        data: Blob::from(b"hi".to_vec()),
    }
    .to_line();
    let cases: Vec<Case> = vec![
        ("valid", valid.clone(), true),
        ("valid payload", read, true),
        // Refused since the event reader walks the declared fields in
        // order, as for ops.
        (
            "reordered",
            "cell-version-created|variant=4|cv=3".into(),
            false,
        ),
        (
            "duplicated",
            "cell-version-created|cv=3|cv=3|variant=4".into(),
            false,
        ),
        ("added", format!("{valid}|extra=1"), false),
        ("dropped", "cell-version-created|cv=3".into(), false),
        (
            "signed number",
            "cell-version-created|cv=+3|variant=4".into(),
            false,
        ),
        (
            "leading zero",
            "cell-version-created|cv=03|variant=4".into(),
            false,
        ),
        ("upper-case hex", "design-data-read|data=6A".into(), false),
        (
            "bad number",
            "cell-version-created|cv=x|variant=4".into(),
            false,
        ),
        ("odd armour", "design-data-read|data=686".into(), false),
        ("signed armour", "design-data-read|data=+869".into(), false),
    ];
    judge("event", cases, |l| Event::parse_line(l).is_ok());
}

#[test]
fn wire_requests() {
    let valid = Request::Hello {
        version: 1,
        user: "alice".into(),
    }
    .encode();
    assert_eq!(valid, "hello|version=1|user=616c696365");
    let op = Request::Op {
        id: 7,
        op: Op::CreateProject { name: "p".into() },
    }
    .encode();
    let cases: Vec<Case> = vec![
        ("valid", valid.clone(), true),
        ("valid op", op.clone(), true),
        ("reordered", "hello|user=616c696365|version=1".into(), true),
        (
            "duplicated",
            "hello|version=1|version=1|user=616c696365".into(),
            true,
        ),
        ("added", format!("{valid}|extra=1"), true),
        ("dropped", "hello|version=1".into(), false),
        (
            "signed number",
            "hello|version=+1|user=616c696365".into(),
            false,
        ),
        (
            "leading zero",
            "hello|version=01|user=616c696365".into(),
            false,
        ),
        (
            "upper-case hex",
            "hello|version=1|user=616C696365".into(),
            false,
        ),
        ("odd armour", "hello|version=1|user=616c69636".into(), false),
        ("bad armour", "hello|version=1|user=zz".into(), false),
        // `+1` once decoded to the byte 0x01: the wire had its own,
        // laxer hex reader.
        ("signed armour", "hello|version=1|user=+1".into(), false),
        ("signed op armour", op.replacen("op=6", "op=+", 1), false),
        ("empty", String::new(), false),
    ];
    judge("request", cases, |l| Request::parse(l).is_ok());
}

#[test]
fn wire_responses() {
    let valid = Response::Data {
        id: 1,
        data: vec![0x0f, 0x41],
    }
    .encode();
    assert_eq!(valid, "data|id=1|data=0f41");
    let ok = Response::Ok {
        id: 2,
        seq: 9,
        event: Event::ProjectCreated(ProjectId::from_raw(5)),
    }
    .encode();
    let cases: Vec<Case> = vec![
        ("valid", valid.clone(), true),
        ("valid ok", ok.clone(), true),
        ("reordered", "data|data=0f41|id=1".into(), true),
        ("duplicated", "data|id=1|id=1|data=0f41".into(), true),
        ("added", format!("{valid}|extra=1"), true),
        ("dropped", "data|id=1".into(), false),
        ("signed number", "data|id=+1|data=0f41".into(), false),
        ("leading zero", "data|id=01|data=0f41".into(), false),
        ("upper-case hex", "data|id=1|data=0F41".into(), false),
        ("odd armour", "data|id=1|data=0f4".into(), false),
        ("signed armour", "data|id=1|data=+f41".into(), false),
        (
            "bad event armour",
            ok.replacen("event=", "event=zz", 1),
            false,
        ),
    ];
    judge("response", cases, |l| Response::parse(l).is_ok());
}

// --- the single-engine chain ------------------------------------------------

const DIR: &str = "/backup/chain";

/// A chain with a base, one delta carrying FMCAD records, a retired
/// segment and an open segment.
fn engine_chain() -> Vfs {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut disk = Vfs::new();
    let mut en = Engine::new();
    let admin = en.admin();
    let alice = en.add_user("alice", false).unwrap();
    let team = en.add_team(admin, "t").unwrap();
    en.add_team_member(admin, team, alice).unwrap();
    let flow = en.standard_flow("f").unwrap();
    let project = en.create_project("alu").unwrap();
    let cell = en.create_cell(project, "adder").unwrap();
    let (cv, variant) = en.create_cell_version(cell, flow.flow, team).unwrap();
    en.checkpoint(&mut disk, &dir).unwrap();
    en.reserve(alice, cv).unwrap();
    en.run_activity(alice, variant, flow.enter_schematic, false, |_| {
        Ok(vec![ToolOutput {
            viewtype: "schematic".into(),
            data: b"netlist adder\n".to_vec().into(),
        }])
    })
    .unwrap();
    en.checkpoint(&mut disk, &dir).unwrap();
    en.publish(alice, cv).unwrap();
    en.create_cell(project, "leaf").unwrap();
    en.sync_journal(&mut disk, &dir).unwrap();
    disk
}

fn chain_path(name: &str) -> VfsPath {
    VfsPath::parse(DIR).unwrap().join(name).unwrap()
}

/// Rewrites the manifest's base and delta fingerprints to the files on
/// disk.
fn refingerprint(disk: &mut Vfs) {
    let manifest = text(disk, &chain_path("ck.manifest"));
    let file = |name: &str| text(disk, &chain_path(name));
    let mut out = String::new();
    for line in manifest.lines() {
        let (head, fp) = match line.rsplit_once("|fp=") {
            Some((head, rest)) => (head, rest.split_once('|').map_or("", |(_, tail)| tail)),
            None => {
                out.push_str(line);
                out.push('\n');
                continue;
            }
        };
        let print = if head.starts_with("base|") {
            persist::fnv64_seeded(
                persist::fnv64_seeded(
                    persist::fnv64(file("oms.img").as_bytes()),
                    file("fs.img").as_bytes(),
                ),
                file("hybrid.meta").as_bytes(),
            )
        } else if let Some(id) = head.strip_prefix("delta|id=") {
            let id = id.split('|').next().unwrap();
            persist::fnv64(file(&format!("delta-{id}.ck")).as_bytes())
        } else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        out.push_str(&format!("{head}|fp={print:016x}"));
        if !fp.is_empty() {
            out.push('|');
            out.push_str(fp);
        }
        out.push('\n');
    }
    disk.write(&chain_path("ck.manifest"), out.into_bytes())
        .unwrap();
}

fn restores(disk: &Vfs) -> bool {
    Engine::restore_from(&mut disk.clone(), &VfsPath::parse(DIR).unwrap()).is_ok()
}

fn line_of(disk: &Vfs, name: &str, prefix: &str) -> String {
    text(disk, &chain_path(name))
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("{name}: no {prefix:?} line"))
        .to_owned()
}

#[test]
fn chain_manifest_records() {
    let disk = engine_chain();
    assert!(restores(&disk));
    let path = chain_path("ck.manifest");
    let base = line_of(&disk, "ck.manifest", "base|");
    let delta = line_of(&disk, "ck.manifest", "delta|");
    let seg = line_of(&disk, "ck.manifest", "seg|");
    let open = line_of(&disk, "ck.manifest", "open|");
    let field = |line: &str, key: &str| {
        line.split('|')
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
            .unwrap()
            .to_owned()
    };
    let (seq, fp) = (field(&base, "seq"), field(&base, "fp"));
    assert!(
        fp.contains(|c: char| c.is_ascii_lowercase()),
        "{fp} has a letter"
    );
    let cases: Vec<(&'static str, &str, String, bool)> = vec![
        ("valid", &base, base.clone(), true),
        ("reordered", &base, format!("base|fp={fp}|seq={seq}"), false),
        (
            "duplicated",
            &base,
            format!("base|seq={seq}|seq={seq}|fp={fp}"),
            false,
        ),
        ("added", &base, format!("{base}|extra=1"), false),
        ("dropped", &base, format!("base|seq={seq}"), false),
        (
            "bad fingerprint",
            &base,
            format!("base|seq={seq}|fp=zz"),
            false,
        ),
        ("bad number", &base, format!("base|seq=x|fp={fp}"), false),
        (
            "signed number",
            &base,
            format!("base|seq=+{seq}|fp={fp}"),
            false,
        ),
        (
            "leading zero",
            &base,
            format!("base|seq=0{seq}|fp={fp}"),
            false,
        ),
        (
            "upper-case hex",
            &base,
            format!("base|seq={seq}|fp={}", fp.to_uppercase()),
            false,
        ),
        (
            "duplicated delta key",
            &delta,
            delta.replacen("|seq=", "|id=1|seq=", 1),
            false,
        ),
        (
            "unknown state",
            &seg,
            seg.replace("state=retired", "state=gone"),
            false,
        ),
        ("added seg key", &seg, format!("{seg}|extra=1"), false),
        (
            "reordered open",
            &open,
            format!(
                "open|start={}|id={}",
                field(&open, "start"),
                field(&open, "id")
            ),
            false,
        ),
        ("unknown record", &open, format!("{open}\nextra|x=1"), false),
        ("empty record", &open, format!("{open}\n|"), false),
        ("dropped open", &open, String::new(), false),
    ];
    judge("manifest", pairs(cases), |(old, new)| {
        restores(&with_line(&disk, &path, old, new))
    });
}

#[test]
fn segment_headers() {
    let disk = engine_chain();
    let open = line_of(&disk, "ck.manifest", "open|");
    let id = open
        .strip_prefix("open|id=")
        .unwrap()
        .split('|')
        .next()
        .unwrap();
    let name = format!("seg-{id}.log");
    let header = line_of(&disk, &name, "@seg|");
    let start = header.rsplit_once("start=").unwrap().1.to_owned();
    let cases: Vec<Case> = vec![
        ("valid", header.clone(), true),
        // A well-formed header naming another slot is a stale leftover,
        // skipped rather than refused.
        ("other slot", format!("@seg|id=999|start={start}"), true),
        ("reordered", format!("@seg|start={start}|id={id}"), false),
        (
            "duplicated",
            format!("@seg|id={id}|id={id}|start={start}"),
            false,
        ),
        ("added", format!("{header}|extra=1"), false),
        ("dropped", format!("@seg|id={id}"), false),
        ("bad number", format!("@seg|id=x|start={start}"), false),
        (
            "signed number",
            format!("@seg|id=+{id}|start={start}"),
            false,
        ),
        (
            "leading zero",
            format!("@seg|id=0{id}|start={start}"),
            false,
        ),
        // The header has no armoured field, so no upper-case hex row.
        ("unknown kind", format!("@sag|id={id}|start={start}"), false),
    ];
    let path = chain_path(&name);
    judge("segment header", cases, |l| {
        restores(&with_line(&disk, &path, &header, l))
    });
}

#[test]
fn fmcad_image_records() {
    let disk = engine_chain();
    let path = chain_path("fs.img");
    let clock = line_of(&disk, "fs.img", "clock ");
    let meter = line_of(&disk, "fs.img", "meter ");
    let extra = hex_path("/extra");
    let cases: Vec<(&'static str, &str, String, bool)> = vec![
        ("valid", &clock, clock.clone(), true),
        ("added dir", &clock, format!("dir {extra}\n{clock}"), true),
        (
            "added file",
            &clock,
            format!("file {extra} 6869\n{clock}"),
            true,
        ),
        (
            "delta-only dir+",
            &clock,
            format!("dir+ {extra}\n{clock}"),
            false,
        ),
        (
            "delta-only dir-",
            &clock,
            format!("dir- {extra}\n{clock}"),
            false,
        ),
        (
            "delta-only del",
            &clock,
            format!("del {extra}\n{clock}"),
            false,
        ),
        (
            "dropped data",
            &clock,
            format!("file {extra}\n{clock}"),
            false,
        ),
        (
            "odd armour",
            &clock,
            format!("file {extra} 686\n{clock}"),
            false,
        ),
        (
            "signed armour",
            &clock,
            format!("file {extra} +869\n{clock}"),
            false,
        ),
        ("bad clock", &clock, "clock x".into(), false),
        ("short meter", &meter, "meter 1 2 3 4".into(), false),
        ("long meter", &meter, "meter 1 2 3 4 5 6".into(), false),
        (
            "unknown tag",
            &clock,
            format!("link {extra}\n{clock}"),
            false,
        ),
    ];
    judge("fs.img", pairs(cases), |(old, new)| {
        let mut edited = with_line(&disk, &path, old, new);
        refingerprint(&mut edited);
        restores(&edited)
    });
}

#[test]
fn fmcad_delta_records() {
    let disk = engine_chain();
    let path = chain_path("delta-1.ck");
    let clock = line_of(&disk, "delta-1.ck", "f|clock ");
    let meter = line_of(&disk, "delta-1.ck", "f|meter ");
    let extra = hex_path("/extra");
    let cases: Vec<(&'static str, &str, String, bool)> = vec![
        ("valid", &clock, clock.clone(), true),
        (
            "added dir+",
            &clock,
            format!("f|dir+ {extra}\n{clock}"),
            true,
        ),
        (
            "added dir- of nothing",
            &clock,
            format!("f|dir- {extra}\n{clock}"),
            true,
        ),
        (
            "added del of nothing",
            &clock,
            format!("f|del {extra}\n{clock}"),
            true,
        ),
        (
            "added file",
            &clock,
            format!("f|file {extra} 6869\n{clock}"),
            true,
        ),
        (
            "image-only dir",
            &clock,
            format!("f|dir {extra}\n{clock}"),
            false,
        ),
        (
            "dropped data",
            &clock,
            format!("f|file {extra}\n{clock}"),
            false,
        ),
        (
            "odd armour",
            &clock,
            format!("f|file {extra} 686\n{clock}"),
            false,
        ),
        ("bad clock", &clock, "f|clock x".into(), false),
        ("dropped clock", &clock, String::new(), false),
        ("short meter", &meter, "f|meter 1 2 3 4".into(), false),
    ];
    judge("delta f|", pairs(cases), |(old, new)| {
        let mut edited = with_line(&disk, &path, old, new);
        refingerprint(&mut edited);
        restores(&edited)
    });
}

// --- the OMS store ----------------------------------------------------------

fn oms_schema() -> oms::Schema {
    use oms::{AttrType, Cardinality, SchemaBuilder};
    let mut b = SchemaBuilder::new();
    let cell = b
        .class("Cell", &[("name", AttrType::Text), ("size", AttrType::Int)])
        .unwrap();
    b.relationship("uses", cell, cell, Cardinality::ManyToMany)
        .unwrap();
    b.build()
}

#[test]
fn oms_image_records() {
    let head = "oms-image v1\nobject 1 Cell\nobject 2 Cell\n";
    let cases: Vec<Case> = vec![
        ("object", "object 3 Cell".into(), true),
        ("attr", "attr 1 name text:6869".into(), true),
        ("int attr", "attr 1 size int:5".into(), true),
        ("negative int attr", "attr 1 size int:-5".into(), true),
        ("signed int attr", "attr 1 size int:+5".into(), false),
        ("leading zero int attr", "attr 1 size int:05".into(), false),
        ("negative zero int attr", "attr 1 size int:-0".into(), false),
        ("upper-case armour", "attr 1 name text:6A".into(), false),
        ("link", "link uses 1 2".into(), true),
        ("delta-only next", "next 5".into(), false),
        ("delta-only del", "del 2".into(), false),
        ("delta-only unlink", "unlink uses 1 2".into(), false),
        ("dropped class", "object 3".into(), false),
        ("added word", "object 3 Cell extra".into(), false),
        ("odd armour", "attr 1 name text:686".into(), false),
        ("signed armour", "attr 1 name text:+869".into(), false),
        ("bad id", "link uses 1 x".into(), false),
        ("unknown relationship", "link owns 1 2".into(), false),
    ];
    judge("oms image", cases, |l| {
        persist::parse(oms_schema(), &format!("{head}{l}\n")).is_ok()
    });
}

#[test]
fn oms_delta_records() {
    let base = persist::parse(
        oms_schema(),
        "oms-image v1\nobject 1 Cell\nobject 2 Cell\nlink uses 1 2\n",
    )
    .unwrap();
    let head = "oms-delta v1\nbase t\nnext 5\n";
    let cases: Vec<Case> = vec![
        ("object", "object 3 Cell".into(), true),
        ("attr", "attr 1 name text:6869".into(), true),
        ("unlink", "unlink uses 1 2".into(), true),
        ("next", "next 9".into(), true),
        ("del of a linked object", "del 2".into(), false),
        ("bad next", "next x".into(), false),
        ("dropped class", "object 3".into(), false),
        ("odd armour", "attr 1 name text:686".into(), false),
        ("unknown keyword", "dir 1".into(), false),
    ];
    judge("oms delta", cases, |l| {
        persist::apply_delta(&mut base.snapshot(), &format!("{head}{l}\n")).is_ok()
    });
}

// --- the sharded backup -----------------------------------------------------

const ROOT: &str = "/backup/shards";

/// A two-shard backup whose live epoch logs hold local, broadcast,
/// prepare and commit records.
fn sharded_backup() -> Vfs {
    let root = VfsPath::parse(ROOT).unwrap();
    let mut disk = Vfs::new();
    let service = ShardedService::new(2);
    let admin = service.open_session(service.admin());
    let team = admin.add_team("t").unwrap();
    let user = admin.add_user("alice", false).unwrap();
    admin.add_team_member(team, user).unwrap();
    let flow = admin.standard_flow("f").unwrap();
    let alice = service.open_session(user);
    let names = ["alu16", "dsp", "rom", "fpu", "mmu", "uart"];
    let other = names
        .iter()
        .find(|n| shard_of_name(n, 2) != shard_of_name(names[0], 2))
        .unwrap();
    let project_a = alice.create_project(names[0]).unwrap();
    let cell_a = alice.create_cell(project_a, "top").unwrap();
    let (cv_a, _) = alice.create_cell_version(cell_a, flow.flow, team).unwrap();
    service.checkpoint(&mut disk, &root).unwrap();
    let project_b = alice.create_project(other).unwrap();
    let cell_b = alice.create_cell(project_b, "leaf").unwrap();
    alice.declare_comp_of(cv_a, cell_b).unwrap();
    admin.add_user("bob", false).unwrap();
    alice.create_cell(project_a, "aux").unwrap();
    service.sync(&mut disk, &root).unwrap();
    disk
}

fn recovers(disk: &Vfs) -> bool {
    ShardedService::recover(&mut disk.clone(), &VfsPath::parse(ROOT).unwrap()).is_ok()
}

fn epoch_path(name: &str) -> VfsPath {
    VfsPath::parse(ROOT)
        .unwrap()
        .join("ck-1")
        .unwrap()
        .join(name)
        .unwrap()
}

fn epoch_line(disk: &Vfs, name: &str, prefix: &str) -> (VfsPath, String) {
    let path = epoch_path(name);
    let line = text(disk, &path)
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("{name}: no {prefix:?} line"))
        .to_owned();
    (path, line)
}

/// The shard log holding a `prefix` record.
fn envelope_line(disk: &Vfs, prefix: &str) -> (VfsPath, String) {
    for shard in 0..2 {
        let name = format!("shard-{shard}.log");
        if text(disk, &epoch_path(&name)).contains(&format!("\n{prefix}")) {
            return epoch_line(disk, &name, prefix);
        }
    }
    panic!("no {prefix:?} record in any shard log")
}

#[test]
fn envelope_records() {
    let disk = sharded_backup();
    assert!(recovers(&disk));
    let (op_path, op) = envelope_line(&disk, "op|");
    let (prep_path, prep) = envelope_line(&disk, "prep|");
    let (cmit_path, cmit) = envelope_line(&disk, "cmit|");
    let (bcast_path, bcast) = envelope_line(&disk, "bcast|");
    let (op_head, op_line) = op.split_once("|line=").unwrap();
    let seq = op_head.strip_prefix("op|seq=").unwrap();
    let (prep_head, prep_line) = prep.split_once("|line=").unwrap();
    let prep_fields: Vec<&str> = prep_head.split('|').collect();
    let [_, pseq, pa, pb] = prep_fields[..] else {
        panic!("prepare layout {prep_head:?}");
    };
    let a: u64 = pa.strip_prefix("a=").unwrap().parse().unwrap();
    // An op record whose armour holds a letter, so upper case differs.
    let (lettered_path, lettered) = (0..2)
        .map(|shard| epoch_path(&format!("shard-{shard}.log")))
        .flat_map(|path| {
            let lines: Vec<String> = text(&disk, &path).lines().map(str::to_owned).collect();
            lines.into_iter().map(move |line| (path.clone(), line))
        })
        .find(|(_, line)| {
            line.split_once("|line=")
                .is_some_and(|(head, op)| head.starts_with("op|") && upper_values(op) != op)
        })
        .expect("an op record with a hex letter");
    let (lettered_head, lettered_op) = lettered.split_once("|line=").unwrap();
    let cases: Vec<(&'static str, &VfsPath, &str, String, bool)> = vec![
        ("valid op", &op_path, &op, op.clone(), true),
        ("valid prepare", &prep_path, &prep, prep.clone(), true),
        ("valid commit", &cmit_path, &cmit, cmit.clone(), true),
        ("valid broadcast", &bcast_path, &bcast, bcast.clone(), true),
        // The line field must come last: moved first, it swallows the rest.
        (
            "line first",
            &op_path,
            &op,
            format!("op|line={op_line}|seq={seq}"),
            false,
        ),
        (
            "dropped seq",
            &op_path,
            &op,
            format!("op|line={op_line}"),
            false,
        ),
        ("dropped line", &op_path, &op, op_head.to_owned(), false),
        (
            "unknown key",
            &op_path,
            &op,
            format!("{op_head}|x=1|line={op_line}"),
            false,
        ),
        (
            "bad number",
            &op_path,
            &op,
            format!("op|seq=x|line={op_line}"),
            false,
        ),
        (
            "signed number",
            &op_path,
            &op,
            format!("op|seq=+{seq}|line={op_line}"),
            false,
        ),
        (
            "leading zero",
            &op_path,
            &op,
            format!("op|seq=0{seq}|line={op_line}"),
            false,
        ),
        (
            "upper-case hex",
            &lettered_path,
            &lettered,
            format!("{lettered_head}|line={}", upper_values(lettered_op)),
            false,
        ),
        (
            "bad op armour",
            &op_path,
            &op,
            format!("{op_head}|line={}", op_line.replacen('=', "=zz", 1)),
            false,
        ),
        (
            "dropped b",
            &prep_path,
            &prep,
            format!("prep|{pseq}|{pa}|line={prep_line}"),
            false,
        ),
        // Refused since the envelope reader moved onto the shared
        // codec: each kind now has exactly the layout the writer emits.
        (
            "reordered",
            &prep_path,
            &prep,
            format!("prep|{pa}|{pseq}|{pb}|line={prep_line}"),
            false,
        ),
        (
            "duplicated",
            &op_path,
            &op,
            format!("{op_head}|seq={seq}|line={op_line}"),
            false,
        ),
        (
            "added a",
            &op_path,
            &op,
            format!("{op_head}|a=0|line={op_line}"),
            false,
        ),
        (
            "commit with a line",
            &cmit_path,
            &cmit,
            format!("{cmit}|line=x"),
            false,
        ),
        (
            "participant past u32",
            &prep_path,
            &prep,
            format!("prep|{pseq}|a={}|{pb}|line={prep_line}", a + (1 << 32)),
            false,
        ),
    ];
    let cases = cases
        .into_iter()
        .map(|(what, path, old, new, ok)| (what, (path, old, new), ok))
        .collect();
    judge("envelope", cases, |(path, old, new)| {
        recovers(&with_line(&disk, path, old, new))
    });
}

#[test]
fn router_image_records() {
    let disk = sharded_backup();
    let (path, part) = epoch_line(&disk, "router.meta", "part|");
    let (_, meta) = epoch_line(&disk, "router.meta", "meta|");
    let (_, bcast) = epoch_line(&disk, "router.meta", "vid|");
    let fields: Vec<&str> = part.split('|').collect();
    let [_, idx, shard, name] = fields[..] else {
        panic!("part layout {part:?}");
    };
    assert_ne!(upper_values(&part), part, "the name has a hex letter");
    let cases: Vec<(&'static str, &str, String, bool)> = vec![
        ("valid", &part, part.clone(), true),
        (
            "reordered",
            &part,
            format!("part|{name}|{shard}|{idx}"),
            true,
        ),
        (
            "duplicated",
            &part,
            format!("part|{idx}|{idx}|{shard}|{name}"),
            true,
        ),
        ("added", &part, format!("{part}|extra=1"), true),
        (
            "reordered header",
            &meta,
            meta.replacen("meta|v=1|", "meta|", 1) + "|v=1",
            true,
        ),
        ("dropped", &part, format!("part|{idx}|{shard}"), false),
        (
            "bad armour",
            &part,
            format!("part|{idx}|{shard}|name=zz"),
            false,
        ),
        (
            "bad number",
            &part,
            format!("part|idx=x|{shard}|{name}"),
            false,
        ),
        (
            "signed number",
            &part,
            format!("part|idx=+{}|{shard}|{name}", &idx[4..]),
            false,
        ),
        (
            "leading zero",
            &part,
            format!("part|idx=0{}|{shard}|{name}", &idx[4..]),
            false,
        ),
        ("upper-case hex", &part, upper_values(&part), false),
        ("field without =", &part, format!("{part}|extra"), false),
        (
            "other version",
            &meta,
            meta.replacen("v=1", "v=2", 1),
            false,
        ),
        (
            "empty broadcast list",
            &bcast,
            format!("{}|bcast=", bcast.split("|bcast=").next().unwrap()),
            false,
        ),
        ("unknown kind", &part, format!("{part}\nnope|x=1"), false),
    ];
    judge("router image", pairs(cases), |(old, new)| {
        recovers(&with_line(&disk, &path, old, new))
    });
}

#[test]
fn epoch_meta_records() {
    let disk = sharded_backup();
    let (path, next) = epoch_line(&disk, "epoch.meta", "seq|");
    let (_, eng) = epoch_line(&disk, "epoch.meta", "engseq|");
    let n = next.strip_prefix("seq|next=").unwrap();
    let fields: Vec<&str> = eng.split('|').collect();
    let [_, shard, seq] = fields[..] else {
        panic!("engseq layout {eng:?}");
    };
    let cases: Vec<(&'static str, &str, String, bool)> = vec![
        ("valid", &eng, eng.clone(), true),
        ("reordered", &eng, format!("engseq|{seq}|{shard}"), false),
        (
            "duplicated",
            &eng,
            format!("engseq|{shard}|{shard}|{seq}"),
            false,
        ),
        ("added", &eng, format!("{eng}|extra=1"), false),
        ("dropped", &eng, format!("engseq|{shard}"), false),
        ("bad number", &eng, format!("engseq|shard=x|{seq}"), false),
        (
            "signed number",
            &eng,
            format!("engseq|shard=+{}|{seq}", &shard[6..]),
            false,
        ),
        (
            "leading zero",
            &eng,
            format!("engseq|shard=0{}|{seq}", &shard[6..]),
            false,
        ),
        // The epoch records have no armoured field, so no upper-case
        // hex row.
        (
            "shard out of range",
            &eng,
            format!("engseq|shard=7|{seq}"),
            false,
        ),
        ("added next key", &next, format!("{next}|extra=1"), false),
        (
            "duplicated next",
            &next,
            format!("seq|next={n}|next={n}"),
            false,
        ),
        ("bad next", &next, "seq|next=x".into(), false),
        ("unknown kind", &next, format!("{next}\nnope|x=1"), false),
    ];
    judge("epoch meta", pairs(cases), |(old, new)| {
        recovers(&with_line(&disk, &path, old, new))
    });
}

// --- the recorded fixtures re-render byte for byte ---------------------------

fn fixture(dir: &str) -> (Vfs, VfsPath) {
    let root = VfsPath::parse("/fixture").unwrap();
    let mut fs = Vfs::new();
    test_support::load_host_tree(
        &mut fs,
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(dir),
        &root,
    );
    (fs, root)
}

/// Checks one engine chain directory: the OMS base image re-dumps to
/// its bytes, each delta's `o|` section re-diffs to its bytes, and
/// every op line in a segment re-renders to itself.
fn chain_re_renders(fs: &Vfs, dir: &VfsPath) -> usize {
    let schema = jcf::schema::jcf_schema;
    let image = text(fs, &dir.join("oms.img").unwrap());
    let mut db = persist::parse(schema(), &image).unwrap();
    assert_eq!(persist::dump(&db), image, "{dir}/oms.img");
    let mut names = fs.read_dir(dir).unwrap();
    names.sort_by_key(|n| {
        n.trim_start_matches(|c: char| !c.is_ascii_digit())
            .trim_end_matches(|c: char| !c.is_ascii_digit())
            .parse::<u64>()
            .unwrap_or(0)
    });
    let mut checked = 1;
    for name in names {
        let body = text(fs, &dir.join(&name).unwrap());
        if name.starts_with("delta-") {
            let section: String = body
                .lines()
                .filter_map(|l| l.strip_prefix("o|"))
                .map(|l| format!("{l}\n"))
                .collect();
            let tag = persist::delta_base_tag(&section).unwrap().to_owned();
            let before = db.snapshot();
            persist::apply_delta(&mut db, &section).unwrap();
            assert_eq!(
                persist::dump_delta(&before, &db, &tag).unwrap(),
                section,
                "{dir}/{name}"
            );
            checked += 1;
        } else if name.starts_with("seg-") {
            for line in body.lines().skip(2) {
                assert_eq!(
                    Op::parse_line(line).unwrap().to_line(),
                    line,
                    "{dir}/{name}"
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn fixture_records_re_render_byte_for_byte() {
    let (fs, root) = fixture("engine_chain_v1");
    assert!(chain_re_renders(&fs, &root.join("chain").unwrap()) > 10);

    let (fs, root) = fixture("sharded_backup_with_op_segments");
    for shard in 0..2 {
        chain_re_renders(&fs, &root.join(&format!("shard-{shard}")).unwrap());
    }
    let mut ops = 0;
    for epoch in 1..=3 {
        for shard in 0..2 {
            let path = root
                .join(&format!("ck-{epoch}"))
                .unwrap()
                .join(&format!("shard-{shard}.log"))
                .unwrap();
            if !fs.exists(&path) {
                continue;
            }
            for line in text(&fs, &path).lines().skip(1) {
                if let Some((_, op)) = line.split_once("|line=") {
                    assert_eq!(Op::parse_line(op).unwrap().to_line(), op, "{path}");
                    ops += 1;
                }
            }
        }
    }
    assert!(ops > 0, "the fixture's envelope logs carry ops");
}

// --- the mutation oracle ----------------------------------------------------

/// The op lines both fixtures hold: segment entries and the lines of
/// envelope records.
fn fixture_op_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let mut segments = |fs: &Vfs, dir: VfsPath| {
        for name in fs.read_dir(&dir).unwrap() {
            if name.starts_with("seg-") {
                let body = text(fs, &dir.join(&name).unwrap());
                lines.extend(body.lines().skip(2).map(str::to_owned));
            }
        }
    };
    let (fs, root) = fixture("engine_chain_v1");
    segments(&fs, root.join("chain").unwrap());
    let (fs, root) = fixture("sharded_backup_with_op_segments");
    for shard in 0..2 {
        segments(&fs, root.join(&format!("shard-{shard}")).unwrap());
    }
    for epoch in 1..=3 {
        for shard in 0..2 {
            let path = root
                .join(&format!("ck-{epoch}"))
                .unwrap()
                .join(&format!("shard-{shard}.log"))
                .unwrap();
            if fs.exists(&path) {
                lines.extend(
                    text(&fs, &path)
                        .lines()
                        .filter_map(|l| Some(l.split_once("|line=")?.1.to_owned())),
                );
            }
        }
    }
    lines
}

/// One seeded edit of one field of a `kind|key=value|...` line: a sign
/// or a leading zero before its value, its value in upper case, a swap
/// with another field, a duplicate, a drop, or a new field beside it.
fn mutate(line: &str, rng: &mut SplitMix64) -> String {
    let mut parts: Vec<String> = line.split('|').map(str::to_owned).collect();
    let fields = parts.len() - 1;
    let edit = if fields == 0 { 6 } else { rng.below(7) };
    let at = 1 + rng.below(fields.max(1));
    let value = |parts: &mut Vec<String>, f: &dyn Fn(&str) -> String| {
        let (key, value) = parts[at].split_once('=').expect("key=value");
        parts[at] = format!("{key}={}", f(value));
    };
    match edit {
        0 => {
            let sign = if rng.chance(1, 2) { '+' } else { '-' };
            value(&mut parts, &|v| format!("{sign}{v}"));
        }
        1 => value(&mut parts, &|v| format!("0{v}")),
        2 => value(&mut parts, &str::to_uppercase),
        3 => parts.swap(at, 1 + rng.below(fields)),
        4 => parts.insert(at, parts[at].clone()),
        5 => drop(parts.remove(at)),
        _ => parts.insert(1 + rng.below(fields + 1), "extra=0".to_owned()),
    }
    parts.join("|")
}

/// Mutates every line `per_line` times and collects each mutant that is
/// neither refused as a journal error nor rendered back to its own
/// bytes.
fn misread<T>(
    lines: &[String],
    per_line: usize,
    rng: &mut SplitMix64,
    parse: impl Fn(&str) -> Result<T, HybridError>,
    render: impl Fn(&T) -> String,
) -> Vec<String> {
    let mut wrong = Vec::new();
    for line in lines {
        for _ in 0..per_line {
            let mutant = mutate(line, rng);
            match parse(&mutant) {
                Err(HybridError::Journal(_)) => {}
                Err(other) => wrong.push(format!("{mutant:?}: not a journal error: {other}")),
                Ok(value) if render(&value) == mutant => {}
                Ok(value) => wrong.push(format!("{mutant:?} reads as {:?}", render(&value))),
            }
        }
    }
    wrong
}

#[test]
fn mutated_op_and_event_lines_are_refused_or_canonical() {
    let mut rng = SplitMix64::new(0x5eed_c0de);
    let mut ops: Vec<String> = samples::op_samples().iter().map(Op::to_line).collect();
    let fixture_ops = fixture_op_lines();
    assert!(fixture_ops.len() > 20, "the fixtures carry op lines");
    ops.extend(fixture_ops);
    let events: Vec<String> = samples::event_samples()
        .iter()
        .map(Event::to_line)
        .collect();
    let mut wrong = misread(&ops, 8, &mut rng, Op::parse_line, Op::to_line);
    wrong.extend(misread(
        &events,
        8,
        &mut rng,
        Event::parse_line,
        Event::to_line,
    ));
    assert!(
        wrong.is_empty(),
        "{} mutant(s) misread:\n{}",
        wrong.len(),
        wrong[..wrong.len().min(20)].join("\n")
    );
}
