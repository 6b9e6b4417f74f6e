//! Checkpointing a [`Database`] to and from the virtual file system.
//!
//! JCF stores both metadata and design data in OMS; encapsulated tools
//! only ever see copies staged through the UNIX file system (§2.1).
//! This module provides the database half of that pipeline: a complete,
//! human-readable image of the store that can be written to a
//! `Vfs` file in the `cad_vfs` file system and read back.
//!
//! The image format is line-oriented:
//!
//! ```text
//! oms-image v1
//! object <raw-id> <class-name>
//! attr <raw-id> <attr-name> <type>:<hex-or-literal>
//! link <rel-name> <src-raw-id> <dst-raw-id>
//! ```
//!
//! Text and byte values are hex-encoded so arbitrary content (including
//! newlines) survives the round trip.
//!
//! The module writes no database file by itself: the hybrid engine's
//! checkpoint chain stores a base image rendered by [`dump`] and
//! delta images rendered by [`dump_delta`] through the atomic
//! [`save_text`], and reads them back with [`load_text`] followed by
//! [`parse`] and [`apply_delta`] — one record reader, so a whole image
//! is its records applied to an empty database. The operations journal
//! between checkpoints uses the line-framed [`render_journal`] format.
//!
//! The module also owns the record codec of the stack — [`assemble`]
//! and [`Fields`] for `kind|key=value|...` lines, [`hex`]/[`unhex`]
//! for armour and [`dec`] for numbers — that the wire frames, the
//! chain manifest and the sharded journals and images are written and
//! read with; the op and event lines build on its readers. Each value
//! has one spelling: hex is lower-case, and a number is plain digits
//! with no sign or leading zero (a `-` only where the type is signed).

use cad_vfs::{Vfs, VfsPath};

use crate::error::{OmsError, OmsResult};
use crate::pmap::DiffEntry;
use crate::schema::{AttrType, RelId, Schema};
use crate::store::{Database, Object, ObjectId};
use crate::value::Value;

/// Serialises the full database into its textual image.
pub fn dump(db: &Database) -> String {
    let (schema, objects, links) = db.raw_parts();
    let mut out = String::from("oms-image v1\n");
    for (id, obj) in objects {
        out.push_str(&object_block(id, obj, schema));
    }
    for (rel, s, t) in links {
        let rel_name = &schema.relationship(rel).name;
        out.push_str(&format!("link {} {} {}\n", rel_name, s.raw(), t.raw()));
    }
    out
}

fn object_block(id: ObjectId, obj: &Object, schema: &Schema) -> String {
    let class_name = &schema.class(obj.class).name;
    let mut out = format!("object {} {}\n", id.raw(), class_name);
    for (name, value) in &obj.attrs {
        out.push_str(&format!("attr {} {} {}\n", id.raw(), name, encode(value)));
    }
    out
}

/// The FNV-1a 64 offset basis — the initial accumulator state for
/// [`fnv64_seeded`] chains.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, the same function every persisted
/// fingerprint in the stack uses.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_seeded(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 accumulation from `state` (start chains at
/// [`FNV_OFFSET`]). Chained segment fingerprints use this so each
/// manifest record commits to the whole journal prefix, not just its
/// own bytes.
pub fn fnv64_seeded(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// The sibling staging path (`<name>.tmp`) the atomic-commit protocol
/// writes before renaming onto `path`; `None` for the root. A stale
/// staging file is the only debris a crashed commit can leave — loaders
/// never look at it, and the next commit simply overwrites it.
pub fn staging_path(path: &VfsPath) -> Option<VfsPath> {
    let name = path.file_name()?;
    let parent = path.parent()?;
    parent.join(&format!("{name}.tmp")).ok()
}

/// Writes `bytes` to `path` atomically: stage the full payload at the
/// sibling [`staging_path`], then `rename` onto `path` — the commit
/// point. A crash (or injected fault) mid-write can tear the staged
/// temporary but never the destination, which either keeps its previous
/// content or receives the complete new image.
fn atomic_write(fs: &mut Vfs, path: &VfsPath, bytes: Vec<u8>) -> OmsResult<()> {
    let tmp = staging_path(path).ok_or_else(|| OmsError::CorruptImage {
        line: 0,
        reason: "cannot stage the root path".to_owned(),
    })?;
    fs.write(&tmp, bytes)?;
    Ok(fs.rename(&tmp, path)?)
}

/// Parses a textual image back into a database over `schema`.
///
/// # Errors
///
/// Returns [`OmsError::CorruptImage`] on any syntactic or schema
/// mismatch (unknown class, attribute or relationship, bad encoding).
pub fn parse(schema: Schema, image: &str) -> OmsResult<Database> {
    let mut lines = image.lines().enumerate();
    match lines.next() {
        Some((_, "oms-image v1")) => {}
        Some((n, other)) => {
            return Err(OmsError::CorruptImage {
                line: n + 1,
                reason: format!("bad header {other:?}"),
            })
        }
        None => {
            return Err(OmsError::CorruptImage {
                line: 1,
                reason: "empty image".to_owned(),
            })
        }
    }
    let mut db = Database::new(schema);
    apply_records(&mut db, lines, Records::Image)?;
    Ok(db)
}

/// The record set a text may carry: a whole image only `object`,
/// `attr` and `link` records; a delta also `next`, `unlink` and `del`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Records {
    Image,
    Delta,
}

/// Applies numbered record lines to `db`, the one reader of both the
/// image and the delta grammar: a whole image is its records applied
/// to an empty database. Returns the allocation counter a `next`
/// record set, if any.
fn apply_records<'a>(
    db: &mut Database,
    lines: impl Iterator<Item = (usize, &'a str)>,
    records: Records,
) -> OmsResult<Option<u64>> {
    let mut next_id = None;
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        let corrupt = |reason: String| OmsError::CorruptImage {
            line: lineno,
            reason,
        };
        let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
        match (keyword, records) {
            ("next", Records::Delta) => {
                next_id = Some(
                    rest.parse::<u64>()
                        .map_err(|_| corrupt(format!("bad next id {rest:?}")))?,
                );
            }
            ("unlink", Records::Delta) => {
                let (rel, s, t) = parse_link_triple(db.schema(), rest, &corrupt)?;
                db.unlink(rel, s, t).map_err(|e| corrupt(e.to_string()))?;
            }
            ("del", Records::Delta) => {
                let raw: u64 = rest
                    .parse()
                    .map_err(|_| corrupt(format!("bad id {rest:?}")))?;
                db.delete(ObjectId::for_tests(raw))
                    .map_err(|e| corrupt(e.to_string()))?;
            }
            ("object", _) => {
                let (raw, class_name) = split2(rest)
                    .ok_or_else(|| corrupt("expected `object <id> <class>`".to_owned()))?;
                let raw: u64 = raw
                    .parse()
                    .map_err(|_| corrupt(format!("bad id {raw:?}")))?;
                let class = db
                    .schema()
                    .class_by_name(class_name)
                    .ok_or_else(|| corrupt(format!("unknown class {class_name:?}")))?;
                db.raw_insert(raw, class);
            }
            ("attr", _) => {
                let (raw, rest2) = split2(rest)
                    .ok_or_else(|| corrupt("expected `attr <id> <name> <value>`".to_owned()))?;
                let (name, encoded) = split2(rest2)
                    .ok_or_else(|| corrupt("expected `attr <id> <name> <value>`".to_owned()))?;
                let raw: u64 = raw
                    .parse()
                    .map_err(|_| corrupt(format!("bad id {raw:?}")))?;
                let value =
                    decode(encoded).ok_or_else(|| corrupt(format!("bad value {encoded:?}")))?;
                db.set(ObjectId::for_tests(raw), name, value)
                    .map_err(|e| corrupt(e.to_string()))?;
            }
            ("link", _) => {
                let (rel, s, t) = parse_link_triple(db.schema(), rest, &corrupt)?;
                db.link(rel, s, t).map_err(|e| corrupt(e.to_string()))?;
            }
            (other, _) => return Err(corrupt(format!("unknown keyword {other:?}"))),
        }
    }
    Ok(next_id)
}

/// Header line of a persisted delta image.
pub const DELTA_MAGIC: &str = "oms-delta v1";

/// Serialises the difference between two databases as a **delta
/// image**: the records that turn `base` into `target`. Both databases
/// must share one schema (the engine always diffs a snapshot against
/// its own successor).
///
/// The cost is O(changes), not O(database): the object trie and every
/// link trie are diffed structurally via [`PMap::diff`](crate::PMap::diff),
/// which skips pointer-shared subtrees, so a 100k-object store with a
/// 200-op delta serialises ~200 records.
///
/// The format extends the image grammar with delta-only keywords, in a
/// fixed record order that makes application single-pass:
///
/// ```text
/// oms-delta v1
/// base <tag>                  # caller-chosen line binding the delta to its base
/// next <next-id>              # the target's exact allocation counter
/// unlink <rel> <src> <dst>    # links present in base, absent in target
/// del <raw-id>                # objects present in base, absent in target
/// object <raw-id> <class>     # added or updated objects (full block,
/// attr <raw-id> <name> <enc>  #   exactly as in the full image)
/// link <rel> <src> <dst>      # links present in target, absent in base
/// ```
///
/// Unlinks precede deletes (referential integrity) and object blocks
/// precede links (endpoints must exist); within each section records
/// are key-sorted, so equal deltas have equal bytes.
///
/// # Errors
///
/// Rejects a `base_tag` containing a newline (it would break the line
/// framing).
pub fn dump_delta(base: &Database, target: &Database, base_tag: &str) -> OmsResult<String> {
    if base_tag.contains('\n') {
        return Err(OmsError::CorruptImage {
            line: 2,
            reason: "base tag contains a newline".to_owned(),
        });
    }
    let schema = target.schema();
    let mut out = format!(
        "{DELTA_MAGIC}\nbase {base_tag}\nnext {}\n",
        target.next_id_raw()
    );

    // Link sections first (computed before object records are written
    // out, appended after them).
    let mut unlinks = String::new();
    let mut links = String::new();
    for rel in schema.relationships() {
        let rel_name = &schema.relationship(rel).name;
        let mut removed = |s: ObjectId, t: ObjectId| {
            unlinks.push_str(&format!("unlink {} {} {}\n", rel_name, s.raw(), t.raw()));
        };
        let mut added = |s: ObjectId, t: ObjectId| {
            links.push_str(&format!("link {} {} {}\n", rel_name, s.raw(), t.raw()));
        };
        for entry in base.forward_map(rel).diff(target.forward_map(rel)) {
            match entry {
                DiffEntry::Added(s, set) => {
                    for t in set.iter() {
                        added(s, *t);
                    }
                }
                DiffEntry::Removed(s) => {
                    let old = base.forward_map(rel).get(&s).expect("removed key in base");
                    for t in old.iter() {
                        removed(s, *t);
                    }
                }
                DiffEntry::Updated(s, new_set) => {
                    let old = base.forward_map(rel).get(&s).expect("updated key in base");
                    for t in old.iter().filter(|t| !new_set.contains(t)) {
                        removed(s, *t);
                    }
                    for t in new_set.iter().filter(|t| !old.contains(t)) {
                        added(s, *t);
                    }
                }
            }
        }
    }
    out.push_str(&unlinks);

    let mut puts = String::new();
    for entry in base.objects_map().diff(target.objects_map()) {
        match entry {
            DiffEntry::Removed(id) => out.push_str(&format!("del {}\n", id.raw())),
            DiffEntry::Added(id, obj) | DiffEntry::Updated(id, obj) => {
                puts.push_str(&object_block(id, &obj, schema));
            }
        }
    }
    out.push_str(&puts);
    out.push_str(&links);
    Ok(out)
}

/// Reads the `base` tag line of a delta image without applying it, so
/// a recovery chain can verify the delta really extends the checkpoint
/// it is about to be applied to.
///
/// # Errors
///
/// Returns [`OmsError::CorruptImage`] when the header or base line is
/// missing or malformed.
pub fn delta_base_tag(text: &str) -> OmsResult<&str> {
    let mut lines = text.lines();
    if lines.next() != Some(DELTA_MAGIC) {
        return Err(OmsError::CorruptImage {
            line: 1,
            reason: "bad delta header".to_owned(),
        });
    }
    match lines.next().and_then(|l| l.strip_prefix("base ")) {
        Some(tag) => Ok(tag),
        None => Err(OmsError::CorruptImage {
            line: 2,
            reason: "missing base tag".to_owned(),
        }),
    }
}

/// Applies a delta image produced by [`dump_delta`] to `db` (which
/// must be in the delta's base state): after the call, `db` equals the
/// target the delta was dumped from — [`dump`] outputs byte-identical
/// images, and the allocation counter matches exactly.
///
/// # Errors
///
/// Returns [`OmsError::CorruptImage`] on any syntactic or schema
/// mismatch, including records that do not apply cleanly (an `unlink`
/// of an absent link, a `del` of a still-linked object) — either means
/// the delta is being applied to the wrong base.
pub fn apply_delta(db: &mut Database, text: &str) -> OmsResult<()> {
    delta_base_tag(text)?;
    // Skip the two header lines already validated above.
    let lines = text.lines().enumerate().skip(2);
    match apply_records(db, lines, Records::Delta)? {
        Some(n) => db.set_next_id_raw(n),
        None => {
            return Err(OmsError::CorruptImage {
                line: 3,
                reason: "missing next id".to_owned(),
            })
        }
    }
    Ok(())
}

/// Parses `<rel> <src> <dst>` against the schema, shared by the `link`
/// and `unlink` record arms.
fn parse_link_triple(
    schema: &Schema,
    rest: &str,
    corrupt: &impl Fn(String) -> OmsError,
) -> OmsResult<(RelId, ObjectId, ObjectId)> {
    let (rel_name, rest2) =
        split2(rest).ok_or_else(|| corrupt("expected `<rel> <src> <dst>`".to_owned()))?;
    let (s, t) = split2(rest2).ok_or_else(|| corrupt("expected `<rel> <src> <dst>`".to_owned()))?;
    let rel = schema
        .relationship_by_name(rel_name)
        .ok_or_else(|| corrupt(format!("unknown relationship {rel_name:?}")))?;
    let s: u64 = s.parse().map_err(|_| corrupt(format!("bad id {s:?}")))?;
    let t: u64 = t.parse().map_err(|_| corrupt(format!("bad id {t:?}")))?;
    Ok((rel, ObjectId::for_tests(s), ObjectId::for_tests(t)))
}

/// Writes a small text file (an epoch pointer, a metadata manifest)
/// atomically: staged in full at the sibling [`staging_path`], then
/// renamed into place. The rename is the single commit point, so a
/// reader at `path` observes either the previous content or the
/// complete new text — this is what makes a `CURRENT` pointer flip
/// whole epochs of a multi-file layout atomically.
///
/// # Errors
///
/// Propagates file system errors as typed [`OmsError::Vfs`] values.
pub fn save_text(fs: &mut Vfs, path: &VfsPath, text: &str) -> OmsResult<()> {
    atomic_write(fs, path, text.as_bytes().to_vec())
}

/// Reads a text file written by [`save_text`].
///
/// # Errors
///
/// Returns [`OmsError::CorruptImage`] if the file is missing or not
/// UTF-8.
pub fn load_text(fs: &Vfs, path: &VfsPath) -> OmsResult<String> {
    let bytes = fs.read(path).map_err(|e| OmsError::CorruptImage {
        line: 0,
        reason: e.to_string(),
    })?;
    // Validate on the borrowed payload: `Blob::to_vec` would count as
    // a materialization, and restore paths run under the zero-copy
    // staging invariant.
    let text = std::str::from_utf8(&bytes).map_err(|_| OmsError::CorruptImage {
        line: 0,
        reason: "text file is not utf-8".to_owned(),
    })?;
    Ok(text.to_owned())
}

/// Header line of a persisted operations journal.
pub const JOURNAL_MAGIC: &str = "oms-journal v1";

/// Renders an operations journal: one opaque single-line entry per
/// operation under an `oms-journal v1` header, every line
/// newline-terminated (which is how a torn tail is detected on load).
///
/// # Errors
///
/// Rejects entries containing newlines (they would break the line
/// framing).
pub fn render_journal(entries: &[String]) -> OmsResult<String> {
    let mut out = String::from(JOURNAL_MAGIC);
    out.push('\n');
    push_entries(&mut out, entries, 2)?;
    Ok(out)
}

/// Frames `entries` onto `out`, one newline-terminated line each; an
/// error names the entry's line, counting the first entry as
/// `first_line`.
fn push_entries(out: &mut String, entries: &[String], first_line: usize) -> OmsResult<()> {
    for (n, entry) in entries.iter().enumerate() {
        if entry.contains('\n') {
            return Err(OmsError::CorruptImage {
                line: first_line + n,
                reason: "journal entry contains a newline".to_owned(),
            });
        }
        out.push_str(entry);
        out.push('\n');
    }
    Ok(())
}

/// Writes an operations journal to `path`, atomically (staged at a
/// sibling `*.tmp` path, renamed into place). The entries themselves
/// are produced (and later interpreted) by the caller; the store only
/// guarantees a faithful line-per-entry round trip.
///
/// # Errors
///
/// Propagates file system errors as typed [`OmsError::Vfs`] values, and
/// rejects entries containing newlines (they would break the line
/// framing).
pub fn save_journal(fs: &mut Vfs, path: &VfsPath, entries: &[String]) -> OmsResult<()> {
    let out = render_journal(entries)?;
    atomic_write(fs, path, out.into_bytes())
}

/// Appends `entries` to the journal at `path` in one
/// [`Vfs::append`], framed exactly like [`save_journal`] frames them,
/// so the file reads back as one journal. The file must already hold
/// a journal (its header written by [`save_journal`]).
///
/// The append is **not** atomic: a crash can leave a torn final line,
/// which [`load_journal_lenient`] splits off and [`load_journal`]
/// rejects. A caller that saw this fail must rewrite the journal with
/// [`save_journal`] before appending to it again, so a torn fragment
/// is never followed by more entries.
///
/// # Errors
///
/// Propagates file system errors as typed [`OmsError::Vfs`] values, and
/// rejects entries containing newlines before anything is written
/// (the error's line counts from the first appended entry).
pub fn append_journal(fs: &mut Vfs, path: &VfsPath, entries: &[String]) -> OmsResult<()> {
    let mut out = String::new();
    push_entries(&mut out, entries, 1)?;
    Ok(fs.append(path, out.as_bytes())?)
}

/// Reads an operations journal written by [`save_journal`] (and
/// extended by [`append_journal`]).
///
/// # Errors
///
/// Returns [`OmsError::CorruptImage`] if the file is missing, not
/// UTF-8, lacks the journal header, or ends in a line truncated
/// mid-entry (no trailing newline). Callers that want to *recover*
/// from a torn tail instead of rejecting it use
/// [`load_journal_lenient`].
pub fn load_journal(fs: &Vfs, path: &VfsPath) -> OmsResult<Vec<String>> {
    let (entries, torn) = load_journal_lenient(fs, path)?;
    if let Some(tail) = torn {
        return Err(OmsError::CorruptImage {
            line: entries.len() + 2,
            reason: format!(
                "journal tail truncated mid-entry ({} bytes at offset {})",
                tail.fragment.len(),
                tail.offset
            ),
        });
    }
    Ok(entries)
}

/// The unterminated suffix a crashed journal write left behind:
/// everything after the last newline, plus where in the file it
/// starts. Recovery reports carry both so an operator can locate the
/// tear (`<segment file>@<offset>`) instead of just knowing bytes were
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The dropped trailing bytes (the remains of one entry).
    pub fragment: String,
    /// Byte offset in the journal file where the fragment begins.
    pub offset: usize,
}

/// Reads an operations journal, tolerating a torn final line.
///
/// Every entry [`save_journal`] writes is newline-terminated, so any
/// trailing bytes after the last newline are the remains of an entry
/// that never finished flushing. This loader returns the complete
/// entries plus the torn tail (if any) — fragment *and* its byte
/// offset in the file — and lets the caller decide: [`load_journal`]
/// rejects the tail, recovery paths drop it and report where it was.
///
/// # Errors
///
/// Returns [`OmsError::CorruptImage`] if the file is missing, not
/// UTF-8, or its *complete* first line is not the journal header. (A
/// file whose only content is an unterminated prefix is reported as
/// zero entries plus a fragment — the header itself never finished.)
pub fn load_journal_lenient(
    fs: &Vfs,
    path: &VfsPath,
) -> OmsResult<(Vec<String>, Option<TornTail>)> {
    let bytes = fs.read(path).map_err(|e| OmsError::CorruptImage {
        line: 0,
        reason: e.to_string(),
    })?;
    let text = std::str::from_utf8(&bytes).map_err(|_| OmsError::CorruptImage {
        line: 0,
        reason: "journal is not utf-8".to_owned(),
    })?;
    let (complete, fragment, offset) = match text.rfind('\n') {
        Some(nl) => (&text[..nl], &text[nl + 1..], nl + 1),
        None => ("", text, 0),
    };
    let torn = (!fragment.is_empty()).then(|| TornTail {
        fragment: fragment.to_owned(),
        offset,
    });
    let mut lines = complete.lines();
    match lines.next() {
        Some(JOURNAL_MAGIC) => {}
        Some(other) => {
            return Err(OmsError::CorruptImage {
                line: 1,
                reason: format!("bad journal header {other:?}"),
            })
        }
        None if torn.is_some() => return Ok((Vec::new(), torn)),
        None => {
            return Err(OmsError::CorruptImage {
                line: 1,
                reason: "bad journal header None".to_owned(),
            })
        }
    }
    Ok((lines.map(str::to_owned).collect(), torn))
}

fn split2(s: &str) -> Option<(&str, &str)> {
    let mut it = s.splitn(2, ' ');
    Some((it.next()?, it.next()?))
}

fn encode(value: &Value) -> String {
    match value {
        Value::Int(i) => format!("int:{i}"),
        Value::Bool(b) => format!("bool:{b}"),
        Value::Text(s) => format!("text:{}", hex(s.as_bytes())),
        Value::Bytes(b) => format!("bytes:{}", hex(b)),
    }
}

fn decode(encoded: &str) -> Option<Value> {
    let (tag, body) = {
        let mut it = encoded.splitn(2, ':');
        (it.next()?, it.next()?)
    };
    match tag {
        "int" => dec(body).map(Value::Int),
        "bool" => body.parse::<bool>().ok().map(Value::Bool),
        "text" => String::from_utf8(unhex(body)?).ok().map(Value::Text),
        "bytes" => unhex(body).map(Value::from),
        _ => None,
    }
}

/// Lower-case hex of a byte string — the armour every image, delta
/// and journal line uses for free-form text and payload bytes.
pub fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    hex_into(&mut s, bytes);
    s
}

/// Appends the [`hex`] armour of `bytes` to `out`.
pub fn hex_into(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
}

/// Decodes the [`hex`] armour; `None` on odd length or on any digit
/// outside `0-9a-f` (upper case included: [`hex`] never writes it).
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    fn digit(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

/// Reads a decimal integer in the one spelling `Display` writes: ASCII
/// digits, no `+`, no leading zero unless the number is `0`, and a `-`
/// only before a non-zero magnitude of a signed type (`T`'s own parser
/// refuses it for unsigned ones). `None` for any other spelling.
pub fn dec<T: std::str::FromStr>(s: &str) -> Option<T> {
    let magnitude = s.strip_prefix('-').unwrap_or(s).as_bytes();
    let canonical = match magnitude {
        [b'0'] => magnitude.len() == s.len(),
        [b'1'..=b'9', rest @ ..] => rest.iter().all(u8::is_ascii_digit),
        _ => false,
    };
    if canonical {
        s.parse().ok()
    } else {
        None
    }
}

/// Hex-armours a string field.
pub fn enc_str(s: &str) -> String {
    hex(s.as_bytes())
}

/// Assembles a `kind|key=value|...` record line from encoded fields.
pub fn assemble(kind: &str, fields: &[(&str, String)]) -> String {
    let mut line = kind.to_owned();
    for (k, v) in fields {
        line.push('|');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    line
}

/// A parsed `kind|key=value|...` record line — the one reader of the
/// grammar the wire frames, the chain manifest, the segment header,
/// the envelope journal, the router image and the epoch metadata all
/// share (the op and event lines have a declared, fixed-order reader
/// of their own in the `hybrid` crate). Values are raw: strings
/// and payloads stay hex-armoured until an accessor decodes them.
pub struct Fields<'a> {
    /// The record kind: everything before the first `|`.
    pub kind: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Splits `line` into its kind and `key=value` fields.
    ///
    /// # Errors
    ///
    /// A field without `=`.
    pub fn parse(line: &'a str) -> Result<Fields<'a>, String> {
        let mut parts = line.split('|');
        let kind = parts.next().unwrap_or_default();
        let mut fields = Vec::new();
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad field {part:?}"))?;
            fields.push((k, v));
        }
        Ok(Fields { kind, fields })
    }

    /// Like [`Fields::parse`], but the first `|<tail>=` field runs to
    /// the end of the line, so its value may hold `|` and `=` itself
    /// (an embedded record line). Without that field the line parses
    /// as [`Fields::parse`] parses it.
    ///
    /// # Errors
    ///
    /// A field before the tail without `=`.
    pub fn parse_with_tail(line: &'a str, tail: &str) -> Result<Fields<'a>, String> {
        let at = line.match_indices('|').map(|(i, _)| i).find(|&i| {
            line[i + 1..]
                .strip_prefix(tail)
                .is_some_and(|r| r.starts_with('='))
        });
        let Some(at) = at else {
            return Fields::parse(line);
        };
        let mut f = Fields::parse(&line[..at])?;
        // `key` is `tail`, `value` starts at its `=`.
        let (key, value) = line[at + 1..].split_at(tail.len());
        f.fields.push((key, &value[1..]));
        Ok(f)
    }

    /// Refuses the record unless its keys are exactly `keys`, in that
    /// order — for formats whose writer emits one fixed layout.
    ///
    /// # Errors
    ///
    /// Names the record kind and the keys it carries.
    pub fn expect_keys(&self, keys: &[&str]) -> Result<(), String> {
        let found = || self.fields.iter().map(|(k, _)| *k);
        if found().eq(keys.iter().copied()) {
            return Ok(());
        }
        Err(format!(
            "{:?} record has keys {:?}, expected {keys:?}",
            self.kind,
            found().collect::<Vec<_>>()
        ))
    }

    /// The raw value of the first `name` field.
    ///
    /// # Errors
    ///
    /// The field is missing.
    pub fn get(&self, name: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field {name:?} in {:?}", self.kind))
    }

    /// A decimal number field in its one spelling ([`dec`]).
    ///
    /// # Errors
    ///
    /// The field is missing or is not a canonical number of type `T`.
    pub fn num<T>(&self, name: &str) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        dec(self.get(name)?).ok_or_else(|| format!("bad number in {name:?}"))
    }

    /// A hex-armoured byte field.
    ///
    /// # Errors
    ///
    /// The field is missing or its armour is not hex.
    pub fn bytes(&self, name: &str) -> Result<Vec<u8>, String> {
        unhex(self.get(name)?).ok_or_else(|| format!("bad hex in {name:?}"))
    }

    /// A hex-armoured UTF-8 string field.
    ///
    /// # Errors
    ///
    /// The field is missing, its armour is not hex or the bytes are
    /// not UTF-8.
    pub fn str(&self, name: &str) -> Result<String, String> {
        String::from_utf8(self.bytes(name)?).map_err(|_| format!("field {name:?} is not utf-8"))
    }
}

/// Returns the attribute type a stored tag string denotes, mainly for
/// diagnostics in callers that inspect images.
pub fn tag_type(tag: &str) -> Option<AttrType> {
    match tag {
        "int" => Some(AttrType::Int),
        "bool" => Some(AttrType::Bool),
        "text" => Some(AttrType::Text),
        "bytes" => Some(AttrType::Bytes),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Cardinality, SchemaBuilder};

    fn sample_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let cell = b
            .class(
                "Cell",
                &[
                    ("name", AttrType::Text),
                    ("size", AttrType::Int),
                    ("frozen", AttrType::Bool),
                    ("blob", AttrType::Bytes),
                ],
            )
            .unwrap();
        b.relationship("uses", cell, cell, Cardinality::ManyToMany)
            .unwrap();
        b.build()
    }

    fn populated() -> Database {
        let mut db = Database::new(sample_schema());
        let cell = db.schema().class_by_name("Cell").unwrap();
        let uses = db.schema().relationship_by_name("uses").unwrap();
        let a = db.create(cell).unwrap();
        let c = db.create(cell).unwrap();
        db.set(a, "name", Value::from("top\nwith newline")).unwrap();
        db.set(a, "size", Value::from(42i64)).unwrap();
        db.set(a, "frozen", Value::from(true)).unwrap();
        db.set(a, "blob", Value::from(vec![0u8, 255, 10, 32]))
            .unwrap();
        db.set(c, "name", Value::from("leaf")).unwrap();
        db.link(uses, a, c).unwrap();
        db
    }

    #[test]
    fn dump_parse_round_trip() {
        let db = populated();
        let image = dump(&db);
        let restored = parse(sample_schema(), &image).unwrap();
        assert_eq!(dump(&restored), image);
    }

    #[test]
    fn round_trip_preserves_values_and_links() {
        let db = populated();
        let restored = parse(sample_schema(), &dump(&db)).unwrap();
        let cell = restored.schema().class_by_name("Cell").unwrap();
        let uses = restored.schema().relationship_by_name("uses").unwrap();
        let a = restored
            .find_by_attr(cell, "name", &Value::from("top\nwith newline"))
            .expect("object restored");
        assert_eq!(restored.get(a, "size").unwrap().as_int(), Some(42));
        assert_eq!(restored.get(a, "frozen").unwrap().as_bool(), Some(true));
        assert_eq!(
            restored.get(a, "blob").unwrap().as_bytes(),
            Some(&[0u8, 255, 10, 32][..])
        );
        assert_eq!(restored.targets(uses, a).len(), 1);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            parse(sample_schema(), "nonsense\n"),
            Err(OmsError::CorruptImage { line: 1, .. })
        ));
    }

    #[test]
    fn unknown_class_rejected() {
        let image = "oms-image v1\nobject 1 Ghost\n";
        assert!(matches!(
            parse(sample_schema(), image),
            Err(OmsError::CorruptImage { line: 2, .. })
        ));
    }

    #[test]
    fn truncated_attr_rejected() {
        let image = "oms-image v1\nobject 1 Cell\nattr 1 name\n";
        assert!(parse(sample_schema(), image).is_err());
    }

    #[test]
    fn bad_hex_rejected() {
        let image = "oms-image v1\nobject 1 Cell\nattr 1 name text:zz\n";
        assert!(parse(sample_schema(), image).is_err());
    }

    #[test]
    fn numbers_and_hex_have_one_spelling() {
        assert_eq!(dec::<u64>("0"), Some(0));
        assert_eq!(dec::<u64>("18446744073709551615"), Some(u64::MAX));
        assert_eq!(dec::<i64>("-5"), Some(-5));
        for bad in ["", "+5", "05", "00", "-0", "-05", " 5", "5 ", "0x5", "-"] {
            assert_eq!(dec::<i64>(bad), None, "{bad:?}");
        }
        assert_eq!(dec::<u64>("-5"), None);
        assert_eq!(dec::<u32>("4294967296"), None);
        assert_eq!(unhex("00ff7a"), Some(vec![0, 255, 0x7a]));
        for bad in ["FF", "7A", "+f", "0", "zz"] {
            assert_eq!(unhex(bad), None, "{bad:?}");
        }
        let mut out = "x".to_owned();
        hex_into(&mut out, &[0xab, 0x01]);
        assert_eq!(out, "xab01");
    }

    #[test]
    fn missing_file_reports_corrupt_image() {
        let fs = Vfs::new();
        let path = VfsPath::parse("/nope").unwrap();
        assert!(matches!(
            load_text(&fs, &path),
            Err(OmsError::CorruptImage { .. })
        ));
    }

    #[test]
    fn tag_type_maps_all_tags() {
        assert_eq!(tag_type("int"), Some(AttrType::Int));
        assert_eq!(tag_type("text"), Some(AttrType::Text));
        assert_eq!(tag_type("bool"), Some(AttrType::Bool));
        assert_eq!(tag_type("bytes"), Some(AttrType::Bytes));
        assert_eq!(tag_type("float"), None);
    }

    #[test]
    fn journal_round_trips_and_rejects_bad_entries() {
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/oms/journal.log").unwrap();
        fs.mkdir_all(&path.parent().unwrap()).unwrap();
        let entries = vec!["op|a=1".to_owned(), "op|b=68656c6c6f".to_owned()];
        save_journal(&mut fs, &path, &entries).unwrap();
        assert_eq!(load_journal(&fs, &path).unwrap(), entries);
        // Empty journal round-trips too.
        save_journal(&mut fs, &path, &[]).unwrap();
        assert!(load_journal(&fs, &path).unwrap().is_empty());
        // Newlines would break the framing and are rejected outright.
        assert!(save_journal(&mut fs, &path, &["a\nb".to_owned()]).is_err());
        // A missing header is corrupt.
        fs.write(&path, b"nonsense\n".to_vec()).unwrap();
        assert!(matches!(
            load_journal(&fs, &path),
            Err(OmsError::CorruptImage { line: 1, .. })
        ));
    }

    #[test]
    fn appended_entries_read_back_as_one_journal() {
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/journal.log").unwrap();
        let first = vec!["op|a=1".to_owned()];
        let more = vec!["op|b=2".to_owned(), "op|c=3".to_owned()];
        save_journal(&mut fs, &path, &first).unwrap();
        append_journal(&mut fs, &path, &more).unwrap();
        let all: Vec<String> = first.iter().chain(&more).cloned().collect();
        assert_eq!(load_journal(&fs, &path).unwrap(), all);
        assert_eq!(
            fs.read(&path).unwrap(),
            render_journal(&all).unwrap().into_bytes(),
            "appending frames byte-for-byte like one save"
        );
        // A newline is rejected before anything reaches the file.
        let before = fs.read(&path).unwrap();
        let err =
            append_journal(&mut fs, &path, &["ok".to_owned(), "a\nb".to_owned()]).unwrap_err();
        assert!(matches!(err, OmsError::CorruptImage { line: 2, .. }));
        assert_eq!(fs.read(&path).unwrap(), before);
    }

    #[test]
    fn a_torn_append_is_split_off_leniently_and_rejected_strictly() {
        use cad_vfs::FaultPlan;
        let first = vec!["op|a=1".to_owned()];
        let more = vec!["op|b=22222".to_owned()];
        let mut fragments = 0;
        for seed in 0..8 {
            let mut fs = Vfs::new();
            let path = VfsPath::parse("/journal.log").unwrap();
            save_journal(&mut fs, &path, &first).unwrap();
            let committed = fs.read(&path).unwrap();
            fs.arm_faults(FaultPlan::new(seed).torn_write(1));
            assert!(append_journal(&mut fs, &path, &more).is_err());
            fs.disarm_faults();
            let (complete, torn) = load_journal_lenient(&fs, &path).unwrap();
            assert_eq!(complete, first, "seed {seed}");
            if let Some(tail) = torn {
                fragments += 1;
                assert_eq!(tail.offset, committed.len());
                assert!(more[0].starts_with(&tail.fragment));
                assert!(load_journal(&fs, &path).is_err());
            }
            // The repair: a whole rewrite drops any fragment.
            save_journal(&mut fs, &path, &first).unwrap();
            assert_eq!(load_journal(&fs, &path).unwrap(), first);
        }
        assert!(fragments > 0, "some seed must tear inside the entry");
    }

    #[test]
    fn save_is_atomic_under_injected_faults() {
        use cad_vfs::FaultPlan;
        let db = populated();
        let image = dump(&db);
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/oms/checkpoint.db").unwrap();
        fs.mkdir_all(&path.parent().unwrap()).unwrap();
        save_text(&mut fs, &path, &image).unwrap();
        let committed = fs.read(&path).unwrap();
        // Tear every subsequent save: the destination must keep the
        // previously committed image, byte for byte.
        for seed in 0..8 {
            fs.arm_faults(FaultPlan::new(seed).torn_write(1));
            assert!(save_text(&mut fs, &path, &image).is_err());
            fs.disarm_faults();
            assert_eq!(
                fs.read(&path).unwrap(),
                committed,
                "a torn save must never be observable at the destination"
            );
        }
        // A fresh destination with a torn first save: nothing appears.
        let fresh = VfsPath::parse("/oms/fresh.db").unwrap();
        fs.arm_faults(FaultPlan::new(1).torn_write(1));
        assert!(save_text(&mut fs, &fresh, &image).is_err());
        fs.disarm_faults();
        assert!(!fs.exists(&fresh), "no partial image at a fresh path");
        // After the fault clears, the save commits and loads clean.
        save_text(&mut fs, &path, &image).unwrap();
        let restored = parse(sample_schema(), &load_text(&fs, &path).unwrap()).unwrap();
        assert_eq!(dump(&restored), image);
    }

    #[test]
    fn save_journal_is_atomic_under_injected_faults() {
        use cad_vfs::FaultPlan;
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/oms/journal.log").unwrap();
        fs.mkdir_all(&path.parent().unwrap()).unwrap();
        let first = vec!["op|a=1".to_owned()];
        save_journal(&mut fs, &path, &first).unwrap();
        fs.arm_faults(FaultPlan::new(11).torn_write(1));
        let longer = vec!["op|a=1".to_owned(), "op|b=2".to_owned()];
        assert!(save_journal(&mut fs, &path, &longer).is_err());
        fs.disarm_faults();
        assert_eq!(
            load_journal(&fs, &path).unwrap(),
            first,
            "the committed journal survives a torn re-save intact"
        );
    }

    #[test]
    fn torn_journal_tail_is_rejected_strictly_and_split_leniently() {
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/journal.log").unwrap();
        let entries = vec!["op|a=1".to_owned(), "op|b=2".to_owned()];
        save_journal(&mut fs, &path, &entries).unwrap();
        // Hand-truncate the final entry mid-line.
        let bytes = fs.read(&path).unwrap().to_vec();
        fs.write(&path, bytes[..bytes.len() - 3].to_vec()).unwrap();
        let err = load_journal(&fs, &path).unwrap_err();
        assert!(matches!(err, OmsError::CorruptImage { line: 3, .. }));
        let (complete, torn) = load_journal_lenient(&fs, &path).unwrap();
        assert_eq!(complete, vec!["op|a=1".to_owned()]);
        let tail = torn.unwrap();
        assert_eq!(tail.fragment, "op|b");
        // The fragment starts right after "oms-journal v1\nop|a=1\n".
        assert_eq!(tail.offset, JOURNAL_MAGIC.len() + 1 + "op|a=1\n".len());
        assert_eq!(
            &bytes[tail.offset..bytes.len() - 3],
            tail.fragment.as_bytes()
        );
        // A torn *header* yields zero entries plus the fragment at 0.
        fs.write(&path, b"oms-jour".to_vec()).unwrap();
        let (complete, torn) = load_journal_lenient(&fs, &path).unwrap();
        assert!(complete.is_empty());
        let tail = torn.unwrap();
        assert_eq!(tail.fragment, "oms-jour");
        assert_eq!(tail.offset, 0);
        assert!(load_journal(&fs, &path).is_err());
    }

    /// Mutates `db` through every delta-visible operation class.
    fn churn(db: &mut Database) {
        let cell = db.schema().class_by_name("Cell").unwrap();
        let uses = db.schema().relationship_by_name("uses").unwrap();
        let a = db
            .find_by_attr(cell, "name", &Value::from("top\nwith newline"))
            .unwrap();
        let c = db.find_by_attr(cell, "name", &Value::from("leaf")).unwrap();
        // Update, add, relink, delete.
        db.set(a, "size", Value::from(1995i64)).unwrap();
        let d = db.create(cell).unwrap();
        db.set(d, "name", Value::from("fresh")).unwrap();
        db.link(uses, a, d).unwrap();
        db.unlink(uses, a, c).unwrap();
        db.delete(c).unwrap();
    }

    #[test]
    fn delta_round_trip_reproduces_the_target_exactly() {
        let base = populated();
        let mut target = base.snapshot();
        churn(&mut target);
        let delta = dump_delta(&base, &target, "ck-7").unwrap();
        assert_eq!(delta_base_tag(&delta).unwrap(), "ck-7");
        let mut rebuilt = base.snapshot();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(dump(&rebuilt), dump(&target));
        // Allocation continues exactly where the live target would.
        let cell = rebuilt.schema().class_by_name("Cell").unwrap();
        let mut live = target;
        assert_eq!(
            rebuilt.create(cell).unwrap().raw(),
            live.create(cell).unwrap().raw()
        );
    }

    #[test]
    fn delta_of_identical_snapshots_is_header_only() {
        let base = populated();
        let twin = base.snapshot();
        let delta = dump_delta(&base, &twin, "ck-1").unwrap();
        assert_eq!(
            delta,
            format!("{DELTA_MAGIC}\nbase ck-1\nnext {}\n", 3),
            "untouched snapshots must produce an empty record set"
        );
        let mut rebuilt = base.snapshot();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(dump(&rebuilt), dump(&base));
    }

    #[test]
    fn delta_records_are_rejected_against_the_wrong_base() {
        let base = populated();
        let mut target = base.snapshot();
        churn(&mut target);
        let delta = dump_delta(&base, &target, "ck-7").unwrap();
        // Applying to the *target* (already past the delta) must fail:
        // the unlink record no longer matches.
        let mut wrong = target.snapshot();
        assert!(matches!(
            apply_delta(&mut wrong, &delta),
            Err(OmsError::CorruptImage { .. })
        ));
        // Headers are validated before any record applies.
        let mut db = base.snapshot();
        assert!(apply_delta(&mut db, "nonsense\n").is_err());
        assert!(apply_delta(&mut db, &format!("{DELTA_MAGIC}\nnope\n")).is_err());
        assert!(
            apply_delta(&mut db, &format!("{DELTA_MAGIC}\nbase x\n")).is_err(),
            "a delta without its next-id line is corrupt"
        );
        assert!(dump_delta(&base, &target, "two\nlines").is_err());
    }

    #[test]
    fn chained_deltas_replay_a_history() {
        // base -> t1 -> t2, delta per hop; applying both in order
        // reproduces t2 from base.
        let base = populated();
        let mut t1 = base.snapshot();
        churn(&mut t1);
        let mut t2 = t1.snapshot();
        let cell = t2.schema().class_by_name("Cell").unwrap();
        let fresh = t2
            .find_by_attr(cell, "name", &Value::from("fresh"))
            .unwrap();
        t2.set(fresh, "size", Value::from(2i64)).unwrap();
        let e = t2.create(cell).unwrap();
        t2.set(e, "name", Value::from("later")).unwrap();

        let d1 = dump_delta(&base, &t1, "ck").unwrap();
        let d2 = dump_delta(&t1, &t2, "ck+1").unwrap();
        let mut db = base.snapshot();
        apply_delta(&mut db, &d1).unwrap();
        apply_delta(&mut db, &d2).unwrap();
        assert_eq!(dump(&db), dump(&t2));
    }

    #[test]
    fn text_files_round_trip_atomically() {
        use cad_vfs::FaultPlan;
        let mut fs = Vfs::new();
        let path = VfsPath::parse("/backup/CURRENT").unwrap();
        fs.mkdir_all(&path.parent().unwrap()).unwrap();
        save_text(&mut fs, &path, "epoch 1").unwrap();
        assert_eq!(load_text(&fs, &path).unwrap(), "epoch 1");
        // A torn re-save never tears the committed pointer.
        fs.arm_faults(FaultPlan::new(9).torn_write(1));
        assert!(save_text(&mut fs, &path, "epoch 2").is_err());
        fs.disarm_faults();
        assert_eq!(load_text(&fs, &path).unwrap(), "epoch 1");
        save_text(&mut fs, &path, "epoch 2").unwrap();
        assert_eq!(load_text(&fs, &path).unwrap(), "epoch 2");
        // Missing files surface as typed corruption, not panics.
        assert!(load_text(&fs, &VfsPath::parse("/backup/nope").unwrap()).is_err());
    }

    #[test]
    fn staging_path_is_a_tmp_sibling() {
        let p = VfsPath::parse("/backup/oms.img").unwrap();
        assert_eq!(
            staging_path(&p).unwrap(),
            VfsPath::parse("/backup/oms.img.tmp").unwrap()
        );
        assert!(staging_path(&VfsPath::root()).is_none());
    }

    #[test]
    fn load_preserves_id_allocation() {
        // New objects created after a load must not collide with
        // restored ids.
        let db = populated();
        let restored = parse(sample_schema(), &dump(&db)).unwrap();
        let mut restored = restored;
        let cell = restored.schema().class_by_name("Cell").unwrap();
        let fresh = restored.create(cell).unwrap();
        assert!(restored.iter().filter(|&i| i == fresh).count() == 1);
        assert!(fresh.raw() > 2);
    }
}
