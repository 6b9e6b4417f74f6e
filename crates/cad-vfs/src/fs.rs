//! The in-memory file system tree.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use crate::blob::Blob;
use crate::cost::{CostMeter, IoCostModel};
use crate::error::{VfsError, VfsResult};
use crate::fault::{FaultPlan, FaultStats, WriteFaultKind, WriteVerdict};
use crate::path::VfsPath;

/// Whether a directory entry is a file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A regular file holding bytes.
    File,
    /// A directory holding named children.
    Directory,
}

/// Metadata of a file system node, as returned by [`Vfs::metadata`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// File or directory.
    pub kind: NodeKind,
    /// Content length in bytes (0 for directories).
    pub len: u64,
    /// Logical modification time (a monotonically increasing counter).
    pub mtime: u64,
}

#[derive(Debug, Clone)]
enum Node {
    Dir {
        children: BTreeMap<String, Node>,
        mtime: u64,
    },
    File {
        content: Blob,
        mtime: u64,
    },
}

impl Node {
    fn kind(&self) -> NodeKind {
        match self {
            Node::Dir { .. } => NodeKind::Directory,
            Node::File { .. } => NodeKind::File,
        }
    }

    fn mtime(&self) -> u64 {
        match self {
            Node::Dir { mtime, .. } | Node::File { mtime, .. } => *mtime,
        }
    }

    fn len(&self) -> u64 {
        match self {
            Node::Dir { .. } => 0,
            Node::File { content, .. } => content.len() as u64,
        }
    }

    /// The counts of this node and everything beneath it.
    fn totals(&self) -> Totals {
        match self {
            Node::File { content, .. } => Totals {
                dirs: 0,
                files: 1,
                bytes: content.len() as u64,
            },
            Node::Dir { children, .. } => children.values().fold(
                Totals {
                    dirs: 1,
                    files: 0,
                    bytes: 0,
                },
                |acc, child| acc.plus(child.totals()),
            ),
        }
    }

    /// Calls `f` with the path of this node (at `at`) and of every
    /// node beneath it.
    fn visit(&self, at: &VfsPath, f: &mut impl FnMut(&VfsPath)) {
        f(at);
        if let Node::Dir { children, .. } = self {
            for (name, child) in children {
                child.visit(&at.join(name).expect("existing entry name is valid"), f);
            }
        }
    }
}

/// Node counts below the root: what a whole-tree walk visits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    /// Directories, the root excluded.
    dirs: u64,
    files: u64,
    /// Content bytes over all files.
    bytes: u64,
}

impl Totals {
    fn plus(self, other: Totals) -> Totals {
        Totals {
            dirs: self.dirs + other.dirs,
            files: self.files + other.files,
            bytes: self.bytes + other.bytes,
        }
    }

    fn minus(self, other: Totals) -> Totals {
        Totals {
            dirs: self.dirs - other.dirs,
            files: self.files - other.files,
            bytes: self.bytes - other.bytes,
        }
    }
}

/// One path a mutation touched since [`Vfs::track_changes`], as
/// reported by [`Vfs::changes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change {
    /// The node at this path (with its subtree) was removed or moved
    /// away at some point; whatever is there now is reported
    /// separately.
    Removed(VfsPath),
    /// A directory that exists now and was created since tracking
    /// began.
    Dir(VfsPath),
    /// A file that exists now and was created or rewritten since
    /// tracking began, with its current content.
    File(VfsPath, Blob),
}

/// The paths mutations touched since [`Vfs::track_changes`].
#[derive(Debug, Clone, Default)]
struct Changes {
    removed: BTreeSet<VfsPath>,
    touched: BTreeSet<VfsPath>,
}

/// An in-memory UNIX-like file system with deterministic I/O costs.
///
/// This is the substrate the paper's encapsulation uses: *"the required
/// data are copied to and from the database via the UNIX file system"*
/// (§2.1). Both frameworks of the reproduction sit on top of a `Vfs`:
/// FMCAD keeps its libraries directly in it, while JCF's OMS database
/// checkpoints into it and stages tool data through it.
///
/// Every operation charges the internal [`CostMeter`] according to the
/// [`IoCostModel`], so experiments can compare transfer strategies
/// without depending on host hardware.
///
/// The *modeled* cost is independent of the *host* cost: file contents
/// are [`Blob`]s, so [`Vfs::read`], [`Vfs::copy_file`] and
/// [`Vfs::copy_tree`] charge the same per-byte ticks as before while
/// performing O(1) refcount bumps on the host heap. The meter itself
/// lives in a [`Cell`], so read-only paths (`read`, `metadata`,
/// `read_dir`, …) take `&self`.
///
/// # Examples
///
/// ```
/// # use cad_vfs::{Vfs, VfsPath};
/// # fn main() -> Result<(), cad_vfs::VfsError> {
/// let mut fs = Vfs::new();
/// fs.mkdir_all(&VfsPath::parse("/libs/adder")?)?;
/// fs.write(&VfsPath::parse("/libs/adder/sch.cdb")?, b"(netlist)".to_vec())?;
/// assert_eq!(fs.read(&VfsPath::parse("/libs/adder/sch.cdb")?)?, b"(netlist)");
/// assert!(fs.meter().ticks > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Vfs {
    root: Node,
    model: IoCostModel,
    meter: Cell<CostMeter>,
    clock: u64,
    /// Armed fault schedule, if any. A `RefCell` because read-path
    /// hooks must advance the plan's counters through `&self` (the
    /// meter already set that precedent with its `Cell`).
    faults: RefCell<Option<FaultPlan>>,
    /// Node counts below the root, kept current by every mutation so
    /// [`Vfs::charge_walk`] costs O(1).
    totals: Totals,
    /// Paths touched since [`Vfs::track_changes`]; `None` while nobody
    /// asked, so an untracked file system pays nothing for it.
    changes: Option<Changes>,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty file system with the default cost model.
    pub fn new() -> Self {
        Self::with_model(IoCostModel::default())
    }

    /// Creates an empty file system with an explicit cost model.
    pub fn with_model(model: IoCostModel) -> Self {
        Vfs {
            root: Node::Dir {
                children: BTreeMap::new(),
                mtime: 0,
            },
            model,
            meter: Cell::new(CostMeter::new()),
            clock: 0,
            faults: RefCell::new(None),
            totals: Totals::default(),
            changes: None,
        }
    }

    /// Arms a deterministic [`FaultPlan`]: subsequent content writes
    /// and reads consult it and may fail, tear, or run out of quota.
    /// Replaces any plan already armed. Takes `&self` so a plan can be
    /// armed on a file system only reachable through a shared
    /// reference (e.g. the live engine's disk).
    pub fn arm_faults(&self, plan: FaultPlan) {
        *self.faults.borrow_mut() = Some(plan);
    }

    /// Disarms fault injection, returning the plan (and its
    /// accumulated [`FaultStats`]) if one was armed.
    pub fn disarm_faults(&self) -> Option<FaultPlan> {
        self.faults.borrow_mut().take()
    }

    /// The counters of the currently armed plan, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.borrow().as_ref().map(FaultPlan::stats)
    }

    /// Returns the accumulated I/O cost meter.
    pub fn meter(&self) -> CostMeter {
        self.meter.get()
    }

    /// Charges the meter through its `Cell` (the meter is `Copy`).
    fn charge(&self, f: impl FnOnce(&mut CostMeter, &IoCostModel)) {
        let mut meter = self.meter.get();
        f(&mut meter, &self.model);
        self.meter.set(meter);
    }

    /// Returns the cost model in force.
    pub fn model(&self) -> IoCostModel {
        self.model
    }

    /// Returns the current logical clock value (advances on mutation).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Overwrites the accumulated cost meter, e.g. when rebuilding a
    /// file system from a persisted image: the restore writes charge
    /// the meter as usual, then the recorded counters are put back so
    /// the restored disk reports exactly the charges of the original.
    pub fn restore_meter(&self, meter: CostMeter) {
        self.meter.set(meter);
    }

    /// Overwrites the logical clock, the mtime companion of
    /// [`Vfs::restore_meter`] for image restores.
    pub fn restore_clock(&mut self, clock: u64) {
        self.clock = clock;
    }

    /// Charges the meter exactly what a pre-order walk of the whole
    /// tree charges — one `read_dir` per directory, one `metadata` per
    /// entry, one `read` per file — without walking: the node counts
    /// it needs are kept current by every mutation, so this is O(1).
    /// An armed [`FaultPlan`] sees no reads.
    pub fn charge_walk(&self) {
        let Totals { dirs, files, bytes } = self.totals;
        let metadata_ops = 1 + 2 * dirs + files;
        self.charge(|m, model| {
            m.ticks = m
                .ticks
                .saturating_add(model.metadata_op.saturating_mul(metadata_ops))
                .saturating_add(model.seek.saturating_mul(files))
                .saturating_add(model.read_byte.saturating_mul(bytes));
            m.metadata_ops += metadata_ops;
            m.bytes_read = m.bytes_read.saturating_add(bytes);
            m.content_ops += files;
        });
    }

    /// Starts recording which paths mutations touch, forgetting
    /// whatever an earlier call recorded. [`Vfs::changes`] reports
    /// them; calling this again after reading them starts the next
    /// window.
    pub fn track_changes(&mut self) {
        self.changes = Some(Changes::default());
    }

    /// What changed since [`Vfs::track_changes`] — `None` when nothing
    /// is being tracked. Every removed path comes first, deepest
    /// first; then every touched path that exists now, parents before
    /// children, with the current content of files. Applying the
    /// records in order (remove whatever node a [`Change::Removed`]
    /// names, then create each directory and write each file) to the
    /// tree as it was when tracking began reproduces the current tree.
    /// Charges nothing: the cost is the number of paths touched, not
    /// the size of the tree.
    pub fn changes(&self) -> Option<Vec<Change>> {
        let changes = self.changes.as_ref()?;
        let mut out: Vec<Change> = changes
            .removed
            .iter()
            .rev()
            .map(|path| Change::Removed(path.clone()))
            .collect();
        for path in &changes.touched {
            match self.lookup(path) {
                Ok(Node::Dir { .. }) => out.push(Change::Dir(path.clone())),
                Ok(Node::File { content, .. }) => {
                    out.push(Change::File(path.clone(), content.clone()))
                }
                Err(_) => {}
            }
        }
        Some(out)
    }

    fn touched(&mut self, path: &VfsPath) {
        if let Some(changes) = &mut self.changes {
            if !changes.touched.contains(path) {
                changes.touched.insert(path.clone());
            }
        }
    }

    fn removed(&mut self, path: &VfsPath) {
        if let Some(changes) = &mut self.changes {
            changes.removed.insert(path.clone());
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn lookup(&self, path: &VfsPath) -> VfsResult<&Node> {
        let mut node = &self.root;
        let mut walked = VfsPath::root();
        for comp in path.components() {
            walked = walked.join(comp).expect("component already validated");
            match node {
                Node::Dir { children, .. } => match children.get(comp) {
                    Some(child) => node = child,
                    None => return Err(VfsError::NotFound(walked)),
                },
                Node::File { .. } => {
                    return Err(VfsError::NotADirectory(
                        walked.parent().unwrap_or_else(VfsPath::root),
                    ))
                }
            }
        }
        Ok(node)
    }

    fn lookup_dir_mut(&mut self, path: &VfsPath) -> VfsResult<&mut BTreeMap<String, Node>> {
        let mut node = &mut self.root;
        let mut walked = VfsPath::root();
        for comp in path.components() {
            walked = walked.join(comp).expect("component already validated");
            match node {
                Node::Dir { children, .. } => match children.get_mut(comp) {
                    Some(child) => node = child,
                    None => return Err(VfsError::NotFound(walked)),
                },
                Node::File { .. } => {
                    return Err(VfsError::NotADirectory(
                        walked.parent().unwrap_or_else(VfsPath::root),
                    ))
                }
            }
        }
        match node {
            Node::Dir { children, .. } => Ok(children),
            Node::File { .. } => Err(VfsError::NotADirectory(path.clone())),
        }
    }

    /// Returns `true` if a node exists at `path`.
    pub fn exists(&self, path: &VfsPath) -> bool {
        self.lookup(path).is_ok()
    }

    /// Returns `true` if `path` is a file holding exactly `content`.
    /// Like [`Vfs::exists`], a look at the tree rather than a modeled
    /// read: it charges nothing and no armed [`FaultPlan`] sees it. A
    /// writer uses it to check that a file it committed is still the
    /// one on this disk.
    pub fn holds(&self, path: &VfsPath, content: &[u8]) -> bool {
        matches!(self.lookup(path), Ok(Node::File { content: c, .. }) if c.as_slice() == content)
    }

    /// Returns metadata for the node at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] if the path does not exist.
    pub fn metadata(&self, path: &VfsPath) -> VfsResult<Metadata> {
        self.charge(|m, model| m.charge_metadata(model));
        let node = self.lookup(path)?;
        Ok(Metadata {
            kind: node.kind(),
            len: node.len(),
            mtime: node.mtime(),
        })
    }

    /// Creates a single directory; the parent must already exist.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::AlreadyExists`] if `path` exists,
    /// [`VfsError::NotFound`]/[`VfsError::NotADirectory`] if the parent
    /// is missing or a file, and [`VfsError::InvalidPath`] for the root.
    pub fn mkdir(&mut self, path: &VfsPath) -> VfsResult<()> {
        self.charge(|m, model| m.charge_metadata(model));
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::InvalidPath("/".to_owned()))?
            .to_owned();
        let mtime = self.tick();
        let parent = path.parent().expect("non-root path has a parent");
        let children = self.lookup_dir_mut(&parent)?;
        if children.contains_key(&name) {
            return Err(VfsError::AlreadyExists(path.clone()));
        }
        children.insert(
            name,
            Node::Dir {
                children: BTreeMap::new(),
                mtime,
            },
        );
        self.totals.dirs += 1;
        self.touched(path);
        Ok(())
    }

    /// Creates a directory and all missing ancestors.
    ///
    /// Existing directories along the way are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotADirectory`] if an existing ancestor is a
    /// regular file.
    pub fn mkdir_all(&mut self, path: &VfsPath) -> VfsResult<()> {
        let mut current = VfsPath::root();
        for comp in path.components() {
            current = current.join(comp).expect("component already validated");
            match self.lookup(&current) {
                Ok(Node::Dir { .. }) => {}
                Ok(Node::File { .. }) => return Err(VfsError::NotADirectory(current)),
                Err(_) => self.mkdir(&current)?,
            }
        }
        Ok(())
    }

    /// Writes `content` to the file at `path`, creating or truncating it.
    ///
    /// The parent directory must exist. Accepts anything convertible
    /// into a [`Blob`]; passing a `Blob` (or a `Vec<u8>`) stores the
    /// bytes without copying them, while the meter still charges full
    /// per-byte write cost.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::IsADirectory`] if `path` names a directory,
    /// parent-resolution errors, and — while a [`FaultPlan`] is armed —
    /// [`VfsError::InjectedWriteFault`] or [`VfsError::QuotaExceeded`].
    /// An injected fault may leave a *torn* file at `path`: a strict
    /// prefix of the payload, exactly like a partially flushed write.
    pub fn write(&mut self, path: &VfsPath, content: impl Into<Blob>) -> VfsResult<()> {
        let content = content.into();
        match self.write_verdict(path, content.len()) {
            WriteVerdict::Persist => {
                self.charge(|m, model| m.charge_write(model, content.len() as u64));
                self.write_node(path, content)
            }
            WriteVerdict::Torn { prefix, kind } => {
                // Persist the prefix that "reached the disk" — only
                // those bytes are charged — then surface the fault.
                let torn = Blob::from(content.as_slice()[..prefix].to_vec());
                self.charge(|m, model| m.charge_write(model, prefix as u64));
                let _ = self.write_node(path, torn);
                Err(Self::write_fault_error(kind, path))
            }
            WriteVerdict::Reject(kind) => Err(Self::write_fault_error(kind, path)),
        }
    }

    /// Appends `bytes` to the end of the file at `path`, creating it
    /// when missing (`O_APPEND` semantics). The meter charges only the
    /// appended bytes, so an append-only log pays O(Δ) per call rather
    /// than a rewrite of everything already on disk.
    ///
    /// An armed [`FaultPlan`] counts an append as one content write: a
    /// torn or quota fault keeps the old content and appends a strict
    /// prefix of `bytes`; a rejected one leaves the file untouched.
    /// Unlike [`Vfs::write`] plus [`Vfs::rename`], an append is not
    /// atomic — a torn append leaves the fragment at the end of the
    /// live file, which is why append-only logs must tolerate (and
    /// eventually rewrite away) a torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::IsADirectory`] if `path` names a directory,
    /// parent-resolution errors, and — while a [`FaultPlan`] is armed —
    /// [`VfsError::InjectedWriteFault`] or [`VfsError::QuotaExceeded`].
    pub fn append(&mut self, path: &VfsPath, bytes: &[u8]) -> VfsResult<()> {
        match self.write_verdict(path, bytes.len()) {
            WriteVerdict::Persist => {
                self.charge(|m, model| m.charge_write(model, bytes.len() as u64));
                self.append_node(path, bytes)
            }
            WriteVerdict::Torn { prefix, kind } => {
                self.charge(|m, model| m.charge_write(model, prefix as u64));
                let _ = self.append_node(path, &bytes[..prefix]);
                Err(Self::write_fault_error(kind, path))
            }
            WriteVerdict::Reject(kind) => Err(Self::write_fault_error(kind, path)),
        }
    }

    /// What the armed fault plan (if any) decides about one content
    /// write of `len` bytes at `path`.
    fn write_verdict(&self, path: &VfsPath, len: usize) -> WriteVerdict {
        self.faults
            .borrow_mut()
            .as_mut()
            .map(|plan| plan.on_write(path, len as u64))
            .unwrap_or(WriteVerdict::Persist)
    }

    fn write_fault_error(kind: WriteFaultKind, path: &VfsPath) -> VfsError {
        match kind {
            WriteFaultKind::Injected => VfsError::InjectedWriteFault(path.clone()),
            WriteFaultKind::Quota => VfsError::QuotaExceeded(path.clone()),
        }
    }

    /// The resolution + insertion half of [`Vfs::write`]; charging and
    /// fault adjudication already happened.
    fn write_node(&mut self, path: &VfsPath, content: Blob) -> VfsResult<()> {
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::IsADirectory(path.clone()))?
            .to_owned();
        let mtime = self.tick();
        let parent = path.parent().expect("non-root path has a parent");
        let children = self.lookup_dir_mut(&parent)?;
        let len = content.len() as u64;
        match children.get_mut(&name) {
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(path.clone())),
            Some(Node::File {
                content: existing,
                mtime: m,
            }) => {
                let old = existing.len() as u64;
                *existing = content;
                *m = mtime;
                self.totals.bytes = self.totals.bytes - old + len;
            }
            None => {
                children.insert(name, Node::File { content, mtime });
                self.totals.files += 1;
                self.totals.bytes += len;
            }
        }
        self.touched(path);
        Ok(())
    }

    /// The resolution + extension half of [`Vfs::append`].
    fn append_node(&mut self, path: &VfsPath, bytes: &[u8]) -> VfsResult<()> {
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::IsADirectory(path.clone()))?
            .to_owned();
        let mtime = self.tick();
        let parent = path.parent().expect("non-root path has a parent");
        let children = self.lookup_dir_mut(&parent)?;
        match children.get_mut(&name) {
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(path.clone())),
            Some(Node::File { content, mtime: m }) => {
                content.append(bytes);
                *m = mtime;
            }
            None => {
                let content = Blob::from(bytes.to_vec());
                children.insert(name, Node::File { content, mtime });
                self.totals.files += 1;
            }
        }
        self.totals.bytes += bytes.len() as u64;
        self.touched(path);
        Ok(())
    }

    /// Reads the full content of the file at `path`.
    ///
    /// Returns a [`Blob`] sharing the stored buffer — an O(1) refcount
    /// bump on the host — while the meter charges the same per-byte
    /// read cost as a physical transfer. The paper's §3.6 observation
    /// lives entirely in the meter.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::IsADirectory`] if `path` names a directory,
    /// [`VfsError::NotFound`] if it does not exist, and — while a
    /// [`FaultPlan`] is armed — a transient
    /// [`VfsError::InjectedReadFault`] that leaves the content intact.
    pub fn read(&self, path: &VfsPath) -> VfsResult<Blob> {
        let faulted = self
            .faults
            .borrow_mut()
            .as_mut()
            .is_some_and(|plan| plan.on_read(path));
        if faulted {
            return Err(VfsError::InjectedReadFault(path.clone()));
        }
        let content = match self.lookup(path)? {
            Node::File { content, .. } => content.clone(),
            Node::Dir { .. } => return Err(VfsError::IsADirectory(path.clone())),
        };
        self.charge(|m, model| m.charge_read(model, content.len() as u64));
        Ok(content)
    }

    /// Lists the entry names of the directory at `path`, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotADirectory`] if `path` names a file.
    pub fn read_dir(&self, path: &VfsPath) -> VfsResult<Vec<String>> {
        self.charge(|m, model| m.charge_metadata(model));
        match self.lookup(path)? {
            Node::Dir { children, .. } => Ok(children.keys().cloned().collect()),
            Node::File { .. } => Err(VfsError::NotADirectory(path.clone())),
        }
    }

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::IsADirectory`] when pointed at a directory.
    pub fn remove_file(&mut self, path: &VfsPath) -> VfsResult<()> {
        self.charge(|m, model| m.charge_metadata(model));
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::IsADirectory(path.clone()))?
            .to_owned();
        let parent = path.parent().expect("non-root path has a parent");
        let children = self.lookup_dir_mut(&parent)?;
        match children.get(&name) {
            Some(Node::File { .. }) => {
                let gone = children.remove(&name).expect("matched above").totals();
                self.totals = self.totals.minus(gone);
                self.removed(path);
                Ok(())
            }
            Some(Node::Dir { .. }) => Err(VfsError::IsADirectory(path.clone())),
            None => Err(VfsError::NotFound(path.clone())),
        }
    }

    /// Removes the *empty* directory at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::DirectoryNotEmpty`] if it still has entries,
    /// or [`VfsError::NotADirectory`] when pointed at a file.
    pub fn remove_dir(&mut self, path: &VfsPath) -> VfsResult<()> {
        self.charge(|m, model| m.charge_metadata(model));
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::InvalidPath("/".to_owned()))?
            .to_owned();
        let parent = path.parent().expect("non-root path has a parent");
        let children = self.lookup_dir_mut(&parent)?;
        match children.get(&name) {
            Some(Node::Dir {
                children: grand, ..
            }) if grand.is_empty() => {
                children.remove(&name);
                self.totals.dirs -= 1;
                self.removed(path);
                Ok(())
            }
            Some(Node::Dir { .. }) => Err(VfsError::DirectoryNotEmpty(path.clone())),
            Some(Node::File { .. }) => Err(VfsError::NotADirectory(path.clone())),
            None => Err(VfsError::NotFound(path.clone())),
        }
    }

    /// Removes the node at `path` and everything underneath it.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] if nothing exists at `path`, or
    /// [`VfsError::InvalidPath`] when asked to remove the root.
    pub fn remove_all(&mut self, path: &VfsPath) -> VfsResult<()> {
        self.charge(|m, model| m.charge_metadata(model));
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::InvalidPath("/".to_owned()))?
            .to_owned();
        let parent = path.parent().expect("non-root path has a parent");
        let children = self.lookup_dir_mut(&parent)?;
        let gone = children
            .remove(&name)
            .ok_or_else(|| VfsError::NotFound(path.clone()))?
            .totals();
        self.totals = self.totals.minus(gone);
        self.removed(path);
        Ok(())
    }

    /// Moves the node at `source` to `dest` (metadata-only, no copy).
    ///
    /// Like POSIX `rename(2)`, a regular file at `dest` is atomically
    /// replaced when `source` is a regular file too — this is the
    /// commit point of the persistence layer's write-to-temp-then-
    /// rename protocol, and it is never subject to fault injection
    /// (a same-directory rename is a single directory-entry update).
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::AlreadyExists`] if `dest` exists and the
    /// file-over-file replacement does not apply, and
    /// [`VfsError::RecursiveTransfer`] if `dest` lies inside `source`.
    pub fn rename(&mut self, source: &VfsPath, dest: &VfsPath) -> VfsResult<()> {
        self.charge(|m, model| m.charge_metadata(model));
        if source.is_prefix_of(dest) {
            return Err(VfsError::RecursiveTransfer {
                source: source.clone(),
                dest: dest.clone(),
            });
        }
        if let Ok(existing) = self.lookup(dest) {
            let replaceable = existing.kind() == NodeKind::File
                && self
                    .lookup(source)
                    .is_ok_and(|s| s.kind() == NodeKind::File);
            if !replaceable {
                return Err(VfsError::AlreadyExists(dest.clone()));
            }
        }
        let src_name = source
            .file_name()
            .ok_or_else(|| VfsError::InvalidPath("/".to_owned()))?
            .to_owned();
        let dst_name = dest
            .file_name()
            .ok_or_else(|| VfsError::InvalidPath("/".to_owned()))?
            .to_owned();
        // Detach.
        let src_parent = source.parent().expect("non-root path has a parent");
        let children = self.lookup_dir_mut(&src_parent)?;
        let node = children
            .remove(&src_name)
            .ok_or_else(|| VfsError::NotFound(source.clone()))?;
        // Attach (restore on failure so the fs is never left inconsistent).
        let dst_parent = dest.parent().expect("non-root path has a parent");
        match self.lookup_dir_mut(&dst_parent) {
            Ok(children) => {
                let replaced = children.insert(dst_name, node);
                if let Some(replaced) = replaced {
                    self.totals = self.totals.minus(replaced.totals());
                }
                if self.changes.is_some() {
                    self.removed(source);
                    let mut moved = Vec::new();
                    self.lookup(dest)
                        .expect("attached a moment ago")
                        .visit(dest, &mut |p| moved.push(p.clone()));
                    for p in &moved {
                        self.touched(p);
                    }
                }
                Ok(())
            }
            Err(e) => {
                let children = self
                    .lookup_dir_mut(&src_parent)
                    .expect("source parent existed a moment ago");
                children.insert(src_name, node);
                Err(e)
            }
        }
    }

    /// Copies the file at `source` to `dest`, paying read + write cost.
    ///
    /// The destination shares the source's backing buffer (copy-on-
    /// nothing — blobs are immutable), so only the *modeled* cost is
    /// per-byte; the host does O(1) work.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::IsADirectory`] if `source` is a directory.
    pub fn copy_file(&mut self, source: &VfsPath, dest: &VfsPath) -> VfsResult<()> {
        let content = self.read(source)?;
        self.write(dest, content)
    }

    /// Recursively copies the tree at `source` to `dest`.
    ///
    /// `dest` must not yet exist; its parent must. Every file copied
    /// pays full read + write cost — this is exactly the overhead the
    /// paper's §3.6 identifies in the JCF encapsulation path.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::RecursiveTransfer`] if `dest` lies inside
    /// `source`, or [`VfsError::AlreadyExists`] if `dest` exists.
    pub fn copy_tree(&mut self, source: &VfsPath, dest: &VfsPath) -> VfsResult<()> {
        if source.is_prefix_of(dest) {
            return Err(VfsError::RecursiveTransfer {
                source: source.clone(),
                dest: dest.clone(),
            });
        }
        if self.exists(dest) {
            return Err(VfsError::AlreadyExists(dest.clone()));
        }
        match self.lookup(source)? {
            Node::File { .. } => self.copy_file(source, dest),
            Node::Dir { .. } => {
                self.mkdir(dest)?;
                let entries = self.read_dir(source)?;
                for name in entries {
                    let s = source.join(&name).expect("existing entry name is valid");
                    let d = dest.join(&name).expect("existing entry name is valid");
                    self.copy_tree(&s, &d)?;
                }
                Ok(())
            }
        }
    }

    /// Returns the total content bytes stored under `path`.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] if the path does not exist.
    pub fn tree_size(&self, path: &VfsPath) -> VfsResult<u64> {
        self.charge(|m, model| m.charge_metadata(model));
        Ok(self.lookup(path)?.totals().bytes)
    }

    /// Returns the paths of all files under `path` (depth-first, sorted).
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] if the path does not exist.
    pub fn walk_files(&self, path: &VfsPath) -> VfsResult<Vec<VfsPath>> {
        self.charge(|m, model| m.charge_metadata(model));
        fn collect(node: &Node, at: &VfsPath, out: &mut Vec<VfsPath>) {
            match node {
                Node::File { .. } => out.push(at.clone()),
                Node::Dir { children, .. } => {
                    for (name, child) in children {
                        let p = at.join(name).expect("existing entry name is valid");
                        collect(child, &p, out);
                    }
                }
            }
        }
        let node = self.lookup(path)?;
        let mut out = Vec::new();
        collect(node, path, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VfsPath {
        VfsPath::parse(s).unwrap()
    }

    #[test]
    fn holds_compares_content_without_charging_or_faulting() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/d")).unwrap();
        fs.write(&p("/d/f"), b"abc".to_vec()).unwrap();
        fs.arm_faults(FaultPlan::new(1).fail_read(1));
        let before = fs.meter();
        assert!(fs.holds(&p("/d/f"), b"abc"));
        assert!(!fs.holds(&p("/d/f"), b"ab"));
        assert!(!fs.holds(&p("/d"), b""));
        assert!(!fs.holds(&p("/d/g"), b"abc"));
        assert_eq!(fs.meter(), before);
        assert_eq!(fs.fault_stats().unwrap().reads_seen, 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut fs = Vfs::new();
        fs.write(&p("/f"), b"hello".to_vec()).unwrap();
        assert_eq!(fs.read(&p("/f")).unwrap(), b"hello");
    }

    #[test]
    fn write_requires_existing_parent() {
        let mut fs = Vfs::new();
        assert!(matches!(
            fs.write(&p("/d/f"), vec![]),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn mkdir_all_is_idempotent() {
        let mut fs = Vfs::new();
        fs.mkdir_all(&p("/a/b/c")).unwrap();
        fs.mkdir_all(&p("/a/b/c")).unwrap();
        assert!(fs.exists(&p("/a/b/c")));
    }

    #[test]
    fn mkdir_rejects_existing() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/a")).unwrap();
        assert!(matches!(
            fs.mkdir(&p("/a")),
            Err(VfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn mkdir_all_fails_through_file() {
        let mut fs = Vfs::new();
        fs.write(&p("/a"), vec![1]).unwrap();
        assert!(matches!(
            fs.mkdir_all(&p("/a/b")),
            Err(VfsError::NotADirectory(_))
        ));
    }

    #[test]
    fn read_dir_sorted() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/d")).unwrap();
        fs.write(&p("/d/z"), vec![]).unwrap();
        fs.write(&p("/d/a"), vec![]).unwrap();
        assert_eq!(
            fs.read_dir(&p("/d")).unwrap(),
            vec!["a".to_owned(), "z".to_owned()]
        );
    }

    #[test]
    fn remove_dir_requires_empty() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/d")).unwrap();
        fs.write(&p("/d/f"), vec![]).unwrap();
        assert!(matches!(
            fs.remove_dir(&p("/d")),
            Err(VfsError::DirectoryNotEmpty(_))
        ));
        fs.remove_file(&p("/d/f")).unwrap();
        fs.remove_dir(&p("/d")).unwrap();
        assert!(!fs.exists(&p("/d")));
    }

    #[test]
    fn remove_all_removes_subtree() {
        let mut fs = Vfs::new();
        fs.mkdir_all(&p("/d/e")).unwrap();
        fs.write(&p("/d/e/f"), vec![1, 2]).unwrap();
        fs.remove_all(&p("/d")).unwrap();
        assert!(!fs.exists(&p("/d")));
    }

    #[test]
    fn rename_moves_subtree_without_content_cost() {
        let mut fs = Vfs::new();
        fs.mkdir_all(&p("/a/b")).unwrap();
        fs.write(&p("/a/b/f"), b"xyz".to_vec()).unwrap();
        let before = fs.meter();
        fs.rename(&p("/a"), &p("/c")).unwrap();
        let delta = fs.meter().since(&before);
        assert_eq!(delta.content_ops, 0, "rename must not touch content");
        assert_eq!(fs.read(&p("/c/b/f")).unwrap(), b"xyz");
        assert!(!fs.exists(&p("/a")));
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut fs = Vfs::new();
        fs.mkdir_all(&p("/a/b")).unwrap();
        assert!(matches!(
            fs.rename(&p("/a"), &p("/a/b/c")),
            Err(VfsError::RecursiveTransfer { .. })
        ));
        assert!(
            fs.exists(&p("/a/b")),
            "failed rename must not destroy the source"
        );
    }

    #[test]
    fn rename_restores_source_if_dest_parent_missing() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/a")).unwrap();
        assert!(fs.rename(&p("/a"), &p("/missing/a")).is_err());
        assert!(fs.exists(&p("/a")));
    }

    #[test]
    fn copy_tree_replicates_structure_and_pays_per_byte() {
        let mut fs = Vfs::new();
        fs.mkdir_all(&p("/src/sub")).unwrap();
        fs.write(&p("/src/f1"), vec![0u8; 100]).unwrap();
        fs.write(&p("/src/sub/f2"), vec![0u8; 50]).unwrap();
        let before = fs.meter();
        fs.copy_tree(&p("/src"), &p("/dst")).unwrap();
        let delta = fs.meter().since(&before);
        assert_eq!(delta.bytes_read, 150);
        assert_eq!(delta.bytes_written, 150);
        assert_eq!(fs.read(&p("/dst/sub/f2")).unwrap().len(), 50);
        assert_eq!(fs.tree_size(&p("/dst")).unwrap(), 150);
    }

    #[test]
    fn copy_tree_into_itself_rejected() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/a")).unwrap();
        assert!(matches!(
            fs.copy_tree(&p("/a"), &p("/a/copy")),
            Err(VfsError::RecursiveTransfer { .. })
        ));
    }

    #[test]
    fn walk_files_lists_depth_first() {
        let mut fs = Vfs::new();
        fs.mkdir_all(&p("/a/b")).unwrap();
        fs.write(&p("/a/x"), vec![]).unwrap();
        fs.write(&p("/a/b/y"), vec![]).unwrap();
        let files = fs.walk_files(&p("/a")).unwrap();
        let names: Vec<String> = files.iter().map(|f| f.to_string()).collect();
        assert_eq!(names, vec!["/a/b/y", "/a/x"]);
    }

    #[test]
    fn mtime_advances_on_writes() {
        let mut fs = Vfs::new();
        fs.write(&p("/f"), vec![1]).unwrap();
        let m1 = fs.metadata(&p("/f")).unwrap().mtime;
        fs.write(&p("/f"), vec![2]).unwrap();
        let m2 = fs.metadata(&p("/f")).unwrap().mtime;
        assert!(m2 > m1);
    }

    #[test]
    fn metadata_reports_kind_and_len() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/d")).unwrap();
        fs.write(&p("/d/f"), vec![9; 7]).unwrap();
        let md = fs.metadata(&p("/d/f")).unwrap();
        assert_eq!(md.kind, NodeKind::File);
        assert_eq!(md.len, 7);
        let dd = fs.metadata(&p("/d")).unwrap();
        assert_eq!(dd.kind, NodeKind::Directory);
        assert_eq!(dd.len, 0);
    }

    #[test]
    fn copy_file_shares_the_backing_buffer() {
        let mut fs = Vfs::new();
        fs.write(&p("/src"), vec![7u8; 1000]).unwrap();
        let copies_before = Blob::materializations();
        fs.copy_file(&p("/src"), &p("/dst")).unwrap();
        assert_eq!(
            Blob::materializations(),
            copies_before,
            "copy_file must not memcpy"
        );
        let a = fs.read(&p("/src")).unwrap();
        let b = fs.read(&p("/dst")).unwrap();
        assert!(Blob::ptr_eq(&a, &b), "both files share one buffer");
    }

    #[test]
    fn read_takes_shared_reference() {
        let mut fs = Vfs::new();
        fs.write(&p("/f"), b"abc".to_vec()).unwrap();
        let fs = &fs; // read paths must work through &Vfs
        let before = fs.meter();
        assert_eq!(fs.read(&p("/f")).unwrap(), b"abc");
        let md = fs.metadata(&p("/f")).unwrap();
        assert_eq!(md.len, 3);
        assert!(fs.read_dir(&p("/")).unwrap().contains(&"f".to_owned()));
        assert_eq!(fs.tree_size(&p("/")).unwrap(), 3);
        assert_eq!(fs.walk_files(&p("/")).unwrap().len(), 1);
        assert!(
            fs.meter().since(&before).ticks > 0,
            "shared reads still charge the meter"
        );
    }

    #[test]
    fn rename_replaces_an_existing_destination_file() {
        let mut fs = Vfs::new();
        fs.write(&p("/old"), b"old".to_vec()).unwrap();
        fs.write(&p("/new.tmp"), b"new".to_vec()).unwrap();
        let before = fs.meter();
        fs.rename(&p("/new.tmp"), &p("/old")).unwrap();
        assert_eq!(fs.meter().since(&before).content_ops, 0);
        assert_eq!(fs.read(&p("/old")).unwrap(), b"new");
        assert!(!fs.exists(&p("/new.tmp")));
    }

    #[test]
    fn rename_still_rejects_directory_destinations() {
        let mut fs = Vfs::new();
        fs.mkdir(&p("/d")).unwrap();
        fs.write(&p("/f"), b"x".to_vec()).unwrap();
        assert!(matches!(
            fs.rename(&p("/f"), &p("/d")),
            Err(VfsError::AlreadyExists(_))
        ));
        fs.mkdir(&p("/e")).unwrap();
        assert!(matches!(
            fs.rename(&p("/e"), &p("/f")),
            Err(VfsError::AlreadyExists(_))
        ));
        assert!(fs.exists(&p("/e")) && fs.exists(&p("/f")));
    }

    #[test]
    fn injected_write_fault_persists_nothing() {
        let mut fs = Vfs::new();
        fs.arm_faults(FaultPlan::new(1).fail_write(1));
        assert!(matches!(
            fs.write(&p("/f"), b"doomed".to_vec()),
            Err(VfsError::InjectedWriteFault(_))
        ));
        assert!(!fs.exists(&p("/f")));
        fs.write(&p("/f"), b"fine".to_vec()).unwrap();
        assert_eq!(fs.read(&p("/f")).unwrap(), b"fine");
        let stats = fs.disarm_faults().unwrap().stats();
        assert_eq!(stats.writes_seen, 2);
        assert_eq!(stats.faults_fired, 1);
    }

    #[test]
    fn torn_write_leaves_a_strict_prefix_and_charges_only_it() {
        let mut fs = Vfs::new();
        fs.arm_faults(FaultPlan::new(0xDEAD).torn_write(1));
        let before = fs.meter();
        assert!(matches!(
            fs.write(&p("/f"), vec![7u8; 1000]),
            Err(VfsError::InjectedWriteFault(_))
        ));
        let torn = fs.read(&p("/f")).unwrap();
        assert!(torn.len() < 1000, "torn prefix must be strict");
        assert!(torn.iter().all(|&b| b == 7));
        assert_eq!(fs.meter().since(&before).bytes_written, torn.len() as u64);
        assert_eq!(fs.fault_stats().unwrap().bytes_admitted, torn.len() as u64);
    }

    #[test]
    fn quota_exhaustion_tears_the_crossing_write() {
        let mut fs = Vfs::new();
        fs.arm_faults(FaultPlan::new(1).quota(8));
        fs.write(&p("/a"), vec![1u8; 6]).unwrap();
        assert!(matches!(
            fs.write(&p("/b"), vec![2u8; 6]),
            Err(VfsError::QuotaExceeded(_))
        ));
        assert_eq!(fs.read(&p("/b")).unwrap().len(), 2, "fitting prefix only");
        assert!(matches!(
            fs.write(&p("/c"), vec![3u8; 1]),
            Err(VfsError::QuotaExceeded(_))
        ));
        assert!(fs.read(&p("/c")).unwrap().is_empty());
    }

    #[test]
    fn injected_read_fault_is_transient() {
        let mut fs = Vfs::new();
        fs.write(&p("/f"), b"data".to_vec()).unwrap();
        fs.arm_faults(FaultPlan::new(2).fail_read(1));
        assert!(matches!(
            fs.read(&p("/f")),
            Err(VfsError::InjectedReadFault(_))
        ));
        assert_eq!(fs.read(&p("/f")).unwrap(), b"data", "content intact");
    }

    #[test]
    fn disarmed_fs_charges_exactly_like_an_unarmed_one() {
        let run = |arm: bool| {
            let mut fs = Vfs::new();
            if arm {
                fs.arm_faults(FaultPlan::new(5));
                fs.disarm_faults();
            }
            fs.mkdir_all(&p("/d")).unwrap();
            fs.write(&p("/d/f"), vec![0u8; 500]).unwrap();
            fs.read(&p("/d/f")).unwrap();
            fs.meter()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn read_only_access_still_charges_read_cost() {
        // The §3.6 claim depends on reads being metered.
        let mut fs = Vfs::new();
        fs.write(&p("/f"), vec![0u8; 10_000]).unwrap();
        let before = fs.meter();
        fs.read(&p("/f")).unwrap();
        let delta = fs.meter().since(&before);
        assert_eq!(delta.bytes_read, 10_000);
        assert!(delta.ticks >= fs.model().read_cost(10_000));
    }
}
