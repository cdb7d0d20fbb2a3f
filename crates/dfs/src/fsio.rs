//! Pluggable filesystem: the injectable I/O layer under every durable
//! path.
//!
//! Everything the persistence layer does to a directory — partition
//! writes, manifest commits, journal staging, fsyncs, renames — goes
//! through the [`ClimberFs`] trait instead of calling `std::fs`
//! directly. Production uses [`StdFs`] (a zero-cost passthrough); the
//! crash-consistency torture harness swaps in a [`FaultFs`] that
//! deterministically injects scripted faults:
//!
//! * **error at op N** — the Nth filesystem operation (globally, or the
//!   Nth of one [`FsOp`] kind) fails with an injected `io::Error`;
//! * **error once, then ok** — the same, but only the first matching
//!   operation fails; a retry succeeds (transient `EIO`);
//! * **torn write** — a write persists only a prefix of its bytes, then
//!   reports failure (torn page / short write);
//! * **crash point** — from op N onward *every* operation fails: the
//!   process's view of the directory is frozen at whatever the first
//!   N−1 operations made durable, exactly like a power cut mid-protocol.
//!
//! Because faults are keyed by a deterministic operation counter, a
//! harness can run a protocol once fault-free to learn its op count,
//! then sweep a crash point across **every** operation — which is what
//! `tests/crash_consistency.rs` does to prove the save/flush/compact
//! commit protocol never leaves a third state. An in-memory index runs
//! over a [`SimFs`], which keeps the files under its root in memory.
//!
//! A file is read whole ([`ClimberFs::read`]) or through a **handle**:
//! [`ClimberFs::open_read`] opens it once and returns a shared
//! [`ReadHandle`] of ranged reads. A store holds one per live image file
//! and reads every cluster, and every image a merge folds, through it, so
//! a query opens nothing. Like any open file, a handle goes on reading the
//! bytes it opened after its path is renamed over or removed, so whoever
//! holds one also keeps that file's blocks allocated. A [`StdFs`] handle
//! serves one reader at a time; another waits for it. Readers meet there
//! when a fold's workers read the images of one pack at once.
//!
//! The module starts no thread: each operation runs on its caller's — a
//! fold writes and fsyncs each file on the worker that built it.

pub use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read, Seek};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// The kinds of filesystem operation the persistence layer performs —
/// each a distinct fault point a [`FaultFs`] script can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FsOp {
    /// A read: of a whole file ([`ClimberFs::read`]) or of one byte range
    /// of it (each range of a [`ReadHandle::read_ranges`]: a cluster, a run
    /// of adjacent clusters, or an image in its pack).
    Read,
    /// Whole-file write (create/truncate).
    Write,
    /// `fsync` of a file's contents.
    FsyncFile,
    /// Atomic rename within a directory.
    Rename,
    /// File removal.
    RemoveFile,
    /// `fsync` of a directory (making renames durable).
    FsyncDir,
    /// Recursive directory creation.
    CreateDirAll,
    /// Listing of a directory's entries.
    List,
}

impl FsOp {
    /// Index into per-kind counters: the declaration order.
    fn idx(self) -> usize {
        self as usize
    }
}

const NUM_KINDS: usize = FsOp::List as usize + 1;

/// The filesystem surface of the persistence layer. Every durable-path
/// byte the index writes or validates flows through one of these
/// methods, so an implementation sees (and may fail) each protocol step
/// individually.
///
/// Implementations must be shareable across threads — the seal writes
/// partitions from a parallel map.
pub trait ClimberFs: fmt::Debug + Send + Sync {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Bytes>;

    /// Opens the file at `path` for ranged reads. The handle reads the
    /// file it opened for as long as it lives, whatever later happens to
    /// `path`. Not a fault point: each read through it is one.
    fn open_read(&self, path: &Path) -> io::Result<ReadRef>;

    /// Writes `bytes` to `path`, creating or truncating it. Not atomic
    /// and not synced — compose with [`ClimberFs::fsync_file`] and
    /// [`ClimberFs::rename`] (or use [`write_file_atomic_with`]) for
    /// durable commits.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Forces the contents of `path` to stable storage.
    fn fsync_file(&self, path: &Path) -> io::Result<()>;

    /// Renames `from` to `to` (atomic within a directory on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Forces the directory entry metadata of `path` to stable storage
    /// (a rename is only durable once its parent directory is synced).
    fn fsync_dir(&self, path: &Path) -> io::Result<()>;

    /// Creates `path` and any missing ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// The names of the entries of directory `dir` (those that are UTF-8).
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let names =
            fs::read_dir(dir)?.filter_map(|entry| entry.ok()?.file_name().into_string().ok());
        Ok(names.collect())
    }
}

/// A shared, thread-safe filesystem handle.
pub type FsRef = Arc<dyn ClimberFs>;

/// A file open for ranged reads: what [`ClimberFs::open_read`] returns,
/// shared by every reader of the file.
pub trait ReadHandle: fmt::Debug + Send + Sync {
    /// Reads every `(offset, len)` range — exactly `len` bytes from byte
    /// `offset` on, one read per range, in order. A range the file ends
    /// inside fails the call with [`io::ErrorKind::UnexpectedEof`].
    fn read_ranges(&self, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>>;
}

/// A shared [`ReadHandle`].
pub type ReadRef = Arc<dyn ReadHandle>;

/// The production filesystem: direct passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl ClimberFs for StdFs {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        fs::read(path).map(Bytes::from)
    }

    fn open_read(&self, path: &Path) -> io::Result<ReadRef> {
        let file = Mutex::new(fs::File::open(path)?);
        let path = path.to_path_buf();
        Ok(Arc::new(StdHandle { path, file }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        // Reopen-to-sync: no writer holds a handle. The kernel syncs the
        // inode, not the descriptor.
        fs::OpenOptions::new().write(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            fs::File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
}

/// A [`StdFs`] file open for reading. One reader at a time seeks and
/// reads it.
#[derive(Debug)]
struct StdHandle {
    /// The path it was opened at, for errors only.
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl ReadHandle for StdHandle {
    fn read_ranges(&self, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        // Every read seeks first: a reader that panicked left nothing the
        // next one depends on.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let file = &mut *file;
        let mut read = |&(offset, len): &(u64, usize)| {
            // A length past `TRUSTED_LEN` (an image, not a cluster) is
            // checked against the file before anything is reserved for
            // it: a damaged manifest's claim never becomes an allocation.
            if len > TRUSTED_LEN && offset.saturating_add(len as u64) > file.metadata()?.len() {
                return Err(past_end(&self.path, offset, len));
            }
            file.seek(io::SeekFrom::Start(offset))?;
            // Filled by `read_to_end` without zeroing it first.
            let mut buf = Vec::with_capacity(len);
            file.take(len as u64).read_to_end(&mut buf)?;
            if buf.len() < len {
                return Err(past_end(&self.path, offset, len));
            }
            Ok(Bytes::from(buf))
        };
        ranges.iter().map(&mut read).collect()
    }
}

/// The longest range a [`StdFs`] handle reserves a buffer for without
/// first checking that the file holds it.
const TRUSTED_LEN: usize = 1 << 20;

fn past_end(path: &Path, offset: u64, len: usize) -> io::Error {
    let at = format!("{len} bytes at offset {offset}");
    let what = format!("{}: {at} run past its end", path.display());
    io::Error::new(io::ErrorKind::UnexpectedEof, what)
}

/// The process-wide shared [`StdFs`] handle every non-injected
/// constructor defaults to.
pub fn std_fs() -> FsRef {
    static STD: OnceLock<FsRef> = OnceLock::new();
    STD.get_or_init(|| Arc::new(StdFs)).clone()
}

/// What an armed [`FaultFs`] rule does when its trigger matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the triggering operation and every later operation in the
    /// trigger's scope (all ops for an [`FaultTrigger::Op`] trigger, all
    /// ops of the kind for [`FaultTrigger::Kind`]) — a persistently bad
    /// device.
    Error,
    /// Fail the first matching operation only; retries succeed (a
    /// transient `EIO`).
    ErrorOnce,
    /// For a write: persist only the first `keep` bytes, then report
    /// failure — a torn/short write. Other kinds degrade to
    /// [`FaultAction::ErrorOnce`].
    Torn {
        /// Bytes of the write that reach the disk.
        keep: usize,
    },
    /// Freeze the disk: this operation and **all** later ones fail, so
    /// the directory stays exactly as the preceding operations left it —
    /// a power cut at this protocol step.
    Crash,
    /// A torn write *followed by* a crash: the first `keep` bytes land,
    /// then the disk freezes. The torn-write fault point a pure
    /// [`FaultAction::Crash`] can't reach (a crashed `write` persists
    /// nothing).
    TornCrash {
        /// Bytes of the write that reach the disk before the freeze.
        keep: usize,
    },
}

/// When a [`FaultFs`] rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The Nth armed operation overall (0-based).
    Op(u64),
    /// The Nth armed operation of one kind (0-based).
    Kind(FsOp, u64),
}

impl FaultTrigger {
    fn matches(self, op: FsOp, global: u64, of_kind: u64) -> bool {
        match self {
            Self::Op(n) => global == n,
            Self::Kind(k, n) => k == op && of_kind == n,
        }
    }

    /// Persistent form: the trigger point and everything after it in the
    /// trigger's scope (used by [`FaultAction::Error`]).
    fn matches_at_or_after(self, op: FsOp, global: u64, of_kind: u64) -> bool {
        match self {
            Self::Op(n) => global >= n,
            Self::Kind(k, n) => k == op && of_kind >= n,
        }
    }
}

#[derive(Debug)]
struct Rule {
    trigger: FaultTrigger,
    action: FaultAction,
    fired: bool,
}

/// A deterministic fault-injecting filesystem wrapping another
/// [`ClimberFs`].
///
/// Operations are counted (globally and per [`FsOp`] kind) only while
/// the injector is **armed**, so a harness can set a directory up, call
/// [`FaultFs::arm`], and know op index 0 is the first operation of the
/// protocol under test. A fault-free armed run records the op count
/// ([`FaultFs::op_count`]) and trace ([`FaultFs::trace`]); a sweep then
/// replays the protocol with [`FaultAction::Crash`] (or any other
/// action) scripted at each index in turn.
#[derive(Debug)]
pub struct FaultFs {
    /// Itself, for the handles it opens: each checks its reads here.
    me: Weak<FaultFs>,
    inner: FsRef,
    armed: AtomicBool,
    crashed: AtomicBool,
    global: AtomicU64,
    per_kind: [AtomicU64; NUM_KINDS],
    rules: Mutex<Vec<Rule>>,
    trace: Mutex<Vec<(FsOp, PathBuf)>>,
}

/// The error message every injected failure carries — tests assert on
/// it to distinguish injected faults from real I/O problems.
pub const INJECTED_FAULT: &str = "injected fault";

fn injected(op: FsOp, path: &Path) -> io::Error {
    io::Error::other(format!("{INJECTED_FAULT}: {op:?} {}", path.display()))
}

impl FaultFs {
    /// Wraps `inner`, starting **disarmed**: operations pass through
    /// uncounted until [`FaultFs::arm`].
    pub fn new(inner: FsRef) -> Arc<Self> {
        Arc::new_cyclic(|me| Self {
            me: me.clone(),
            inner,
            armed: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            global: AtomicU64::new(0),
            per_kind: Default::default(),
            rules: Mutex::new(Vec::new()),
            trace: Mutex::new(Vec::new()),
        })
    }

    /// Wraps the standard filesystem.
    pub fn over_std() -> Arc<Self> {
        Self::new(std_fs())
    }

    /// Starts counting operations (op index 0 = the next operation).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops counting; subsequent operations pass through unchecked
    /// (unless the disk already crashed, which is permanent).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Scripts `action` at armed-op trigger `trigger`.
    pub fn inject(&self, trigger: FaultTrigger, action: FaultAction) {
        self.rules.lock().expect("fault rules").push(Rule {
            trigger,
            action,
            fired: false,
        });
    }

    /// Scripts a [`FaultAction::Crash`] at global armed op `n`.
    pub fn crash_at(&self, n: u64) {
        self.inject(FaultTrigger::Op(n), FaultAction::Crash);
    }

    /// Scripts a [`FaultAction::TornCrash`] at global armed op `n`.
    pub fn torn_crash_at(&self, n: u64, keep: usize) {
        self.inject(FaultTrigger::Op(n), FaultAction::TornCrash { keep });
    }

    /// Total armed operations seen so far.
    pub fn op_count(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Armed operations of `kind` seen so far.
    pub fn op_count_of(&self, kind: FsOp) -> u64 {
        self.per_kind[kind.idx()].load(Ordering::SeqCst)
    }

    /// True once a crash rule fired; every later operation fails.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The `(kind, path)` of every armed operation, in order.
    pub fn trace(&self) -> Vec<(FsOp, PathBuf)> {
        self.trace.lock().expect("fault trace").clone()
    }

    /// Gate called before every operation. Returns the action to apply
    /// to this op, or an error for plain failures.
    fn check(&self, op: FsOp, path: &Path) -> io::Result<Option<FaultAction>> {
        if !self.armed.load(Ordering::SeqCst) {
            if self.is_crashed() {
                return Err(injected(op, path));
            }
            return Ok(None);
        }
        let global = self.global.fetch_add(1, Ordering::SeqCst);
        let of_kind = self.per_kind[op.idx()].fetch_add(1, Ordering::SeqCst);
        self.trace
            .lock()
            .expect("fault trace")
            .push((op, path.to_path_buf()));
        if self.is_crashed() {
            return Err(injected(op, path));
        }
        let mut rules = self.rules.lock().expect("fault rules");
        for rule in rules.iter_mut() {
            if rule.action == FaultAction::Error {
                if rule.trigger.matches_at_or_after(op, global, of_kind) {
                    return Err(injected(op, path));
                }
                continue;
            }
            if !rule.trigger.matches(op, global, of_kind) {
                continue;
            }
            match rule.action {
                FaultAction::Error => unreachable!("handled above"),
                FaultAction::ErrorOnce => {
                    if !rule.fired {
                        rule.fired = true;
                        return Err(injected(op, path));
                    }
                }
                FaultAction::Torn { keep } => {
                    if !rule.fired {
                        rule.fired = true;
                        if op == FsOp::Write {
                            return Ok(Some(FaultAction::Torn { keep }));
                        }
                        return Err(injected(op, path));
                    }
                }
                FaultAction::Crash => {
                    self.crashed.store(true, Ordering::SeqCst);
                    return Err(injected(op, path));
                }
                FaultAction::TornCrash { keep } => {
                    self.crashed.store(true, Ordering::SeqCst);
                    if op == FsOp::Write {
                        return Ok(Some(FaultAction::TornCrash { keep }));
                    }
                    return Err(injected(op, path));
                }
            }
        }
        Ok(None)
    }
}

impl ClimberFs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        self.check(FsOp::Read, path)?;
        self.inner.read(path)
    }

    /// Each range read through the handle is one [`FsOp::Read`] on
    /// `path`; a fault at any of them fails the read.
    fn open_read(&self, path: &Path) -> io::Result<ReadRef> {
        let fs = self
            .me
            .upgrade()
            .expect("a FaultFs lives in the Arc `new` made");
        let (path, inner) = (path.to_path_buf(), self.inner.open_read(path)?);
        Ok(Arc::new(FaultHandle { fs, path, inner }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.check(FsOp::Write, path)? {
            Some(FaultAction::Torn { keep } | FaultAction::TornCrash { keep }) => {
                // The torn prefix really lands on disk; the caller still
                // sees a failure — exactly a short write cut by a fault.
                let keep = keep.min(bytes.len());
                self.inner.write(path, &bytes[..keep])?;
                Err(injected(FsOp::Write, path))
            }
            _ => self.inner.write(path, bytes),
        }
    }

    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        self.check(FsOp::FsyncFile, path)?;
        self.inner.fsync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(FsOp::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check(FsOp::RemoveFile, path)?;
        self.inner.remove_file(path)
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.check(FsOp::FsyncDir, path)?;
        self.inner.fsync_dir(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check(FsOp::CreateDirAll, path)?;
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.check(FsOp::List, dir)?;
        self.inner.list(dir)
    }
}

/// A handle a [`FaultFs`] opened: every range it reads is checked, and
/// traced, as one [`FsOp::Read`] of its path.
#[derive(Debug)]
struct FaultHandle {
    fs: Arc<FaultFs>,
    path: PathBuf,
    inner: ReadRef,
}

impl ReadHandle for FaultHandle {
    fn read_ranges(&self, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        for _ in ranges {
            self.fs.check(FsOp::Read, &self.path)?;
        }
        self.inner.read_ranges(ranges)
    }
}

/// An in-memory filesystem: the files under its root — a path it picks
/// itself, which names nothing on any disk — are [`Bytes`] in a map, and
/// every other path goes to the filesystem it wraps, as a [`FaultFs`]
/// passes its operations on. An in-memory index is a
/// [`DiskStore`](crate::store::DiskStore) rooted there, so it runs the
/// one write → fsync → publish → seal protocol, and a `save` of it into a
/// real directory writes one. A write, rename or remove under the root
/// takes effect at once and an fsync only checks that its file exists:
/// there is no crash model. Reads hand out slices of the stored bytes.
#[derive(Debug)]
pub struct SimFs {
    root: PathBuf,
    inner: FsRef,
    files: RwLock<HashMap<PathBuf, Bytes>>,
}

impl SimFs {
    /// An empty in-memory filesystem, under a root of its own, over
    /// `inner`.
    pub fn new(inner: FsRef) -> Arc<Self> {
        static ROOTS: AtomicU64 = AtomicU64::new(0);
        let root = format!("/climber-simfs/{}", ROOTS.fetch_add(1, Ordering::Relaxed));
        let (root, files) = (PathBuf::from(root), RwLock::default());
        Arc::new(Self { root, inner, files })
    }

    /// The directory under which files live in memory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The wrapped filesystem, when `path` lies outside the root.
    fn disk(&self, path: &Path) -> Option<&dyn ClimberFs> {
        (!path.starts_with(&self.root)).then_some(&*self.inner)
    }

    fn file(&self, path: &Path) -> io::Result<Bytes> {
        let file = self.files.read().get(path).cloned();
        file.ok_or_else(|| missing(path))
    }
}

fn missing(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl ClimberFs for SimFs {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        self.disk(path)
            .map_or_else(|| self.file(path), |disk| disk.read(path))
    }

    /// A handle on a file under the root is its bytes as they are now.
    fn open_read(&self, path: &Path) -> io::Result<ReadRef> {
        if let Some(disk) = self.disk(path) {
            return disk.open_read(path);
        }
        let (path, file) = (path.to_path_buf(), self.file(path)?);
        Ok(Arc::new(SimHandle { path, file }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.disk(path) {
            Some(disk) => disk.write(path, bytes),
            None => {
                self.files.write().insert(path.to_path_buf(), bytes.into());
                Ok(())
            }
        }
    }

    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        let disk = self.disk(path);
        disk.map_or_else(|| self.file(path).map(drop), |disk| disk.fsync_file(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match (self.disk(from), self.disk(to)) {
            (Some(disk), Some(_)) => disk.rename(from, to),
            (None, None) => {
                let mut files = self.files.write();
                let bytes = files.remove(from).ok_or_else(|| missing(from))?;
                files.insert(to.to_path_buf(), bytes);
                Ok(())
            }
            _ => Err(io::Error::other("a rename across the in-memory root")),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.disk(path) {
            Some(disk) => disk.remove_file(path),
            None => {
                let removed = self.files.write().remove(path);
                removed.map(drop).ok_or_else(|| missing(path))
            }
        }
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.disk(path).map_or(Ok(()), |disk| disk.fsync_dir(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.disk(path)
            .map_or(Ok(()), |disk| disk.create_dir_all(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        if let Some(disk) = self.disk(dir) {
            return disk.list(dir);
        }
        let files = self.files.read();
        let names = (files.keys().filter(|path| path.parent() == Some(dir)))
            .filter_map(|path| Some(path.file_name()?.to_str()?.to_owned()));
        // In name order, so what a listing drives repeats run to run.
        let mut names: Vec<String> = names.collect();
        names.sort_unstable();
        Ok(names)
    }
}

/// A file under a [`SimFs`] root, open: its ranged reads are slices of
/// its bytes.
#[derive(Debug)]
struct SimHandle {
    path: PathBuf,
    file: Bytes,
}

impl ReadHandle for SimHandle {
    fn read_ranges(&self, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        let file = &self.file;
        let slice = |&(offset, len): &(u64, usize)| match offset.checked_add(len as u64) {
            Some(end) if end <= file.len() as u64 => Ok(file.slice(offset as usize..end as usize)),
            _ => Err(past_end(&self.path, offset, len)),
        };
        ranges.iter().map(slice).collect()
    }
}

/// A sibling temp path for `path` that no concurrent writer shares: the
/// name carries the process id and a process-wide sequence number.
fn tmp_sibling(path: &Path) -> PathBuf {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!(
        "{}.tmp.{}.{seq}",
        path.extension().and_then(|e| e.to_str()).unwrap_or("dat"),
        std::process::id()
    ))
}

/// True when `name` is a temp file left by an interrupted
/// [`write_file_atomic_with`] — safe to sweep at open time.
pub fn is_tmp_name(name: &str) -> bool {
    name.contains(".tmp.")
}

/// Writes `bytes` to `path` crash-safely through `fs`: sibling temp
/// file, fsync, atomic rename, parent-directory fsync — every step an
/// individually injectable fault point. On failure the temp file is
/// removed best-effort (a crash may keep it; open-time recovery sweeps
/// strays).
pub fn write_file_atomic_with(fs: &dyn ClimberFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_staged(fs, path, bytes)?;
    // A rename is directory metadata: without fsyncing the parent, a
    // power cut can durably keep the file data yet lose the rename,
    // breaking the "manifest visible => partitions visible" ordering.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs.fsync_dir(parent)?;
    }
    Ok(())
}

/// [`write_file_atomic_with`] minus the directory fsync: sibling temp
/// file, fsync, atomic rename. For the `.new` stages of a seal — the
/// caller owes **one** directory fsync covering all its stages before the
/// manifest commit that references them. `path` only ever changes by the
/// rename, so whatever it held before (an earlier stage a failed seal
/// left as the only copy of its records, possibly being read right now)
/// survives a failed or torn write intact; on failure the temp file is
/// removed best-effort.
pub fn write_staged(fs: &dyn ClimberFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = write_temp(fs, path, bytes)?;
    fs.rename(&tmp, path).inspect_err(|_| {
        fs.remove_file(&tmp).ok();
    })
}

/// The first two steps of [`write_staged`], alone: `bytes` under a fresh
/// temp sibling of `path`, fsynced. Returns the temp path; the caller
/// renames it over `path`, or removes it. On failure the temp file is
/// removed best-effort.
pub fn write_temp(fs: &dyn ClimberFs, path: &Path, bytes: &[u8]) -> io::Result<PathBuf> {
    let tmp = tmp_sibling(path);
    match fs.write(&tmp, bytes).and_then(|()| fs.fsync_file(&tmp)) {
        Ok(()) => Ok(tmp),
        Err(e) => {
            fs.remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// The open-side half of the stage → commit → install protocol, for every
/// file a manifest references (partition, skeleton, journal): returns what
/// `check` makes of the bytes that pass it — those of `path`, else those
/// of its `staged` sibling, which a crash between the manifest commit and
/// the install leaves as the only copy of the committed contents — plus
/// whether they are still under `staged` when this returns. When neither
/// passes, the error is the one `path` itself earned (`unreadable` maps a
/// failed read of it), as if no sibling existed.
///
/// `writable` gates everything this does to the directory. A writable
/// open finishes the protocol: a sibling beside a matching
/// `path` is pre-commit garbage and is removed; a matching sibling is
/// renamed over `path` and the directory fsynced. A read-only open only
/// reads, so it can never remove a live writer's pre-commit stages.
pub fn read_committed<T, E>(
    fs: &dyn ClimberFs,
    path: &Path,
    staged: &Path,
    writable: bool,
    check: impl Fn(Bytes) -> Result<T, E>,
    unreadable: impl FnOnce(io::Error) -> E,
) -> Result<(T, bool), E> {
    let first = match fs.read(path).map_err(unreadable).and_then(&check) {
        Ok(checked) => {
            if writable {
                fs.remove_file(staged).ok();
            }
            return Ok((checked, false));
        }
        Err(e) => e,
    };
    match fs.read(staged).map(check) {
        Ok(Ok(checked)) => {
            let installed = writable && fs.rename(staged, path).is_ok();
            if installed {
                if let Some(dir) = path.parent() {
                    fs.fsync_dir(dir).ok();
                }
            }
            Ok((checked, !installed))
        }
        _ => Err(first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("climber-fsio-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Runs `check` over each filesystem a store runs on, in a directory
    /// of it: the real one (a fresh temp directory) and a [`SimFs`] root.
    fn each_fs(tag: &str, check: impl Fn(FsRef, &Path)) {
        let dir = tmp_dir(tag);
        check(std_fs(), &dir);
        fs::remove_dir_all(&dir).ok();
        let sim = SimFs::new(std_fs());
        check(sim.clone(), sim.root());
    }

    fn slices(read: &[Bytes]) -> Vec<&[u8]> {
        read.iter().map(|b| &b[..]).collect()
    }

    #[test]
    fn std_fs_roundtrip_and_atomic_write() {
        each_fs("std", |fs_, dir| {
            let p = dir.join("a.bin");
            write_file_atomic_with(&*fs_, &p, b"hello").unwrap();
            assert_eq!(&fs_.read(&p).unwrap()[..], b"hello");
            fs_.rename(&p, &dir.join("b.bin")).unwrap();
            assert!(fs_.read(&p).is_err());
            fs_.remove_file(&dir.join("b.bin")).unwrap();
            // No temp droppings.
            assert!(fs_.list(dir).unwrap().is_empty());
        });
    }

    /// A handle's ranged reads over the real filesystem and a [`SimFs`],
    /// each through a [`FaultFs`]: exactly the ranges, or a typed failure.
    #[test]
    fn read_ranges_reads_exactly_the_ranges_or_fails_typed() {
        each_fs("range", |inner, dir| {
            let ff = FaultFs::new(inner);
            let p = dir.join("r.bin");
            ff.write(&p, b"0123456789").unwrap();
            ff.arm();
            let handle = ff.open_read(&p).unwrap();
            let read = |ranges: &[(u64, usize)]| handle.read_ranges(ranges);
            let got = read(&[(2, 5), (0, 1), (10, 0)]).unwrap();
            assert_eq!(slices(&got), [&b"23456"[..], b"0", b""]);
            assert!(read(&[]).unwrap().is_empty());
            let err = read(&[(0, 2), (8, 3)]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert!(ff.open_read(&dir.join("absent")).is_err());
            // Each range is one `Read` op, faultable like a whole read; an
            // open is none.
            assert_eq!(ff.op_count_of(FsOp::Read), 5);
            assert_eq!(ff.op_count(), 5);
            ff.inject(FaultTrigger::Kind(FsOp::Read, 6), FaultAction::ErrorOnce);
            let err = read(&[(0, 1), (1, 1)]).unwrap_err();
            assert!(err.to_string().contains(INJECTED_FAULT));
            let got = read(&[(0, 1), (1, 1)]).unwrap();
            assert_eq!(slices(&got), [b"0", b"1"]);
            // A claimed length no file could hold fails typed: nothing is
            // reserved for it.
            for range in [(4, usize::MAX / 2), (u64::MAX - 1, 1 << 40)] {
                let err = read(&[range]).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{range:?}");
            }
            // The handle reads the file it opened: a rename over its path
            // changes nothing it reads, a fresh open reads the new bytes.
            let q = dir.join("q.bin");
            ff.write(&q, b"abcdefghij").unwrap();
            ff.rename(&q, &p).unwrap();
            assert_eq!(slices(&read(&[(0, 3)]).unwrap()), [b"012"]);
            let fresh = ff.open_read(&p).unwrap().read_ranges(&[(0, 3)]);
            assert_eq!(slices(&fresh.unwrap()), [b"abc"]);
        });
    }

    #[test]
    fn disarmed_faultfs_is_a_passthrough() {
        let dir = tmp_dir("disarmed");
        let ff = FaultFs::over_std();
        ff.crash_at(0);
        let p = dir.join("x");
        ff.write(&p, b"ok").unwrap();
        assert_eq!(ff.op_count(), 0, "disarmed ops are not counted");
        ff.arm();
        assert!(ff.write(&p, b"boom").is_err());
        assert!(ff.is_crashed());
        assert_eq!(
            fs::read(&p).unwrap(),
            b"ok",
            "crashed write persisted nothing"
        );
        // After a crash every op fails, armed or not.
        ff.disarm();
        assert!(ff.read(&p).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_once_then_ok() {
        let dir = tmp_dir("once");
        let ff = FaultFs::over_std();
        ff.inject(FaultTrigger::Kind(FsOp::Write, 1), FaultAction::ErrorOnce);
        ff.arm();
        let p = dir.join("y");
        ff.write(&p, b"one").unwrap();
        let err = ff.write(&p, b"two").unwrap_err();
        assert!(err.to_string().contains(INJECTED_FAULT));
        assert_eq!(fs::read(&p).unwrap(), b"one", "failed write left old bytes");
        ff.write(&p, b"three").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"three");
        assert_eq!(ff.op_count_of(FsOp::Write), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_error_fails_every_match() {
        let dir = tmp_dir("persist");
        let ff = FaultFs::over_std();
        ff.inject(FaultTrigger::Kind(FsOp::RemoveFile, 0), FaultAction::Error);
        ff.arm();
        let p = dir.join("z");
        ff.write(&p, b"v").unwrap();
        assert!(ff.remove_file(&p).is_err());
        assert!(ff.remove_file(&p).is_err(), "Error rules never clear");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let dir = tmp_dir("torn");
        let ff = FaultFs::over_std();
        ff.inject(FaultTrigger::Op(0), FaultAction::Torn { keep: 3 });
        ff.arm();
        let p = dir.join("t");
        assert!(ff.write(&p, b"abcdef").is_err());
        assert_eq!(fs::read(&p).unwrap(), b"abc");
        assert!(!ff.is_crashed(), "a torn write alone is not a crash");
        ff.write(&p, b"abcdef").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"abcdef");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_crash_freezes_after_prefix() {
        let dir = tmp_dir("torncrash");
        let ff = FaultFs::over_std();
        ff.torn_crash_at(0, 2);
        ff.arm();
        let p = dir.join("t");
        assert!(ff.write(&p, b"abcdef").is_err());
        assert_eq!(fs::read(&p).unwrap(), b"ab");
        assert!(ff.is_crashed());
        assert!(ff.write(&p, b"later").is_err());
        assert_eq!(fs::read(&p).unwrap(), b"ab", "frozen disk never changes");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_cleans_temp_on_injected_fsync_failure() {
        let dir = tmp_dir("cleanup");
        let ff = FaultFs::over_std();
        ff.inject(
            FaultTrigger::Kind(FsOp::FsyncFile, 0),
            FaultAction::ErrorOnce,
        );
        ff.arm();
        let p = dir.join("target.bin");
        assert!(write_file_atomic_with(&*ff, &p, b"data").is_err());
        assert!(!p.exists(), "target never appeared");
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.is_empty(), "temp cleaned: {names:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_and_counts_line_up() {
        let dir = tmp_dir("trace");
        let ff = FaultFs::over_std();
        ff.arm();
        let p = dir.join("f");
        ff.write(&p, b"1").unwrap();
        ff.fsync_file(&p).unwrap();
        ff.read(&p).unwrap();
        assert_eq!(ff.op_count(), 3);
        let trace = ff.trace();
        assert_eq!(
            trace.iter().map(|(op, _)| *op).collect::<Vec<_>>(),
            vec![FsOp::Write, FsOp::FsyncFile, FsOp::Read]
        );
        assert!(trace.iter().all(|(_, path)| path == &p));
        fs::remove_dir_all(&dir).ok();
    }
}
