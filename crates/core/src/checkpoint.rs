//! Crash-safe compiler/trainer checkpointing.
//!
//! One format (DESIGN.md §8): generations ([`CheckpointStore`]). Every
//! save commits a new `gen_<n>/` directory whose `MANIFEST` lists each
//! payload file with its length and FNV-1a checksum. All payload writes
//! are write-to-temp → fsync → atomic rename, the MANIFEST is written
//! last (it is the commit point), and generation numbers increase
//! monotonically — a crash at *any* instant leaves either a fully
//! verifiable generation or an unreferenced partial directory that
//! [`CheckpointStore::load_latest_valid`] skips (bumping the
//! `checkpoint.corrupt_skipped` counter) in favour of the newest
//! generation that still verifies. A compiler's networks are one
//! payload file per action-space size (`net_<pe_count>.mzw`), written
//! by [`save_compiler_generation`] and read by [`load_compiler_latest`];
//! the trainer commits the same net file plus its resumable state.
//!
//! Checkpoint I/O is threaded with failpoints (`checkpoint.pre_write`,
//! `checkpoint.pre_rename`, `checkpoint.pre_manifest`) so chaos tests
//! can kill a save at every interesting instant and prove recovery.

use crate::compiler::Compiler;
use crate::failpoint;
use crate::network::MapZeroNet;
use bytes::Bytes;
use mapzero_nn::{encode_params, WeightFormatError};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Directory creation / listing failed.
    Io(io::Error),
    /// A weight file was malformed.
    Weights(WeightFormatError),
    /// A file name did not match the expected convention; carries the
    /// full offending path.
    BadName(PathBuf),
    /// A generation or state payload failed verification (bad manifest,
    /// length/checksum mismatch, truncated or mismatched state).
    Corrupt(String),
    /// No generation in the directory passed verification.
    NoValidGeneration,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::Weights(e) => write!(f, "weight file error: {e}"),
            CheckpointError::BadName(p) => {
                write!(f, "unexpected checkpoint file `{}`", p.display())
            }
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::NoValidGeneration => {
                write!(f, "no valid checkpoint generation found")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Weights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<WeightFormatError> for CheckpointError {
    fn from(e: WeightFormatError) -> Self {
        CheckpointError::Weights(e)
    }
}

/// FNV-1a 64-bit checksum — dependency-free, deterministic, and good
/// enough to catch torn writes and bit rot (not an adversarial MAC).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Streaming FNV-1a 64 — the incremental form of [`fnv1a64`], used by
/// the inference hot path to key prediction caches without
/// first serializing the state into a byte buffer.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Name of the per-generation manifest file (the commit point).
pub const MANIFEST_NAME: &str = "MANIFEST";

const MANIFEST_MAGIC: &str = "MZCKPT 1";

/// One payload file recorded in a generation manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    name: String,
    len: u64,
    checksum: u64,
}

/// The per-generation `MANIFEST`: a small text file listing every
/// payload file with length + checksum. A generation is valid iff its
/// manifest parses and every entry verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    generation: u64,
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    fn render(&self) -> String {
        let mut out = format!("{MANIFEST_MAGIC}\ngeneration {}\n", self.generation);
        for e in &self.entries {
            out.push_str(&format!("file {} {} {:016x}\n", e.name, e.len, e.checksum));
        }
        // Terminator with the entry count: a truncated manifest can
        // never parse as a valid shorter one.
        out.push_str(&format!("end {}\n", self.entries.len()));
        out
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err("missing MZCKPT header".to_owned());
        }
        let generation = lines
            .next()
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|n| n.parse().ok())
            .ok_or("missing generation line")?;
        let mut entries = Vec::new();
        let mut terminated = false;
        for line in lines.filter(|l| !l.trim().is_empty()) {
            if terminated {
                return Err(format!("content after `end` terminator: `{line}`"));
            }
            if let Some(count) = line.strip_prefix("end ") {
                let count: usize =
                    count.parse().map_err(|_| format!("bad entry count in `{line}`"))?;
                if count != entries.len() {
                    return Err(format!(
                        "terminator says {count} entries, found {}",
                        entries.len()
                    ));
                }
                terminated = true;
                continue;
            }
            let mut parts = line.split_whitespace();
            let (kw, name, len, sum) =
                (parts.next(), parts.next(), parts.next(), parts.next());
            let (Some("file"), Some(name), Some(len), Some(sum), None) =
                (kw, name, len, sum, parts.next())
            else {
                return Err(format!("malformed manifest line `{line}`"));
            };
            entries.push(ManifestEntry {
                name: name.to_owned(),
                len: len.parse().map_err(|_| format!("bad length in `{line}`"))?,
                checksum: u64::from_str_radix(sum, 16)
                    .map_err(|_| format!("bad checksum in `{line}`"))?,
            });
        }
        if !terminated {
            return Err("missing `end` terminator (truncated manifest?)".to_owned());
        }
        Ok(Manifest { generation, entries })
    }
}

/// Write `bytes` to `path` crash-safely: write a sibling temp file,
/// fsync it, atomically rename it over `path`, and fsync the directory
/// so the rename itself is durable.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    failpoint::trigger("checkpoint.pre_rename")?;
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Directory fsync makes the rename durable; non-fatal on
        // filesystems that refuse to open directories.
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A loaded-and-verified checkpoint generation: every payload byte has
/// already passed the manifest's length + checksum test.
#[derive(Debug, Clone)]
pub struct LoadedGeneration {
    /// The generation number.
    pub generation: u64,
    files: BTreeMap<String, Vec<u8>>,
}

impl LoadedGeneration {
    /// The verified bytes of a payload file.
    #[must_use]
    pub fn file(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(Vec::as_slice)
    }

    /// Payload file names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }
}

/// A directory of monotonically numbered, individually verifiable
/// checkpoint generations.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if missing) a checkpoint directory.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The directory this store manages.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Directory holding one generation (`gen_000042`). The directory
    /// may not exist, or may hold a torn commit — only
    /// [`CheckpointStore::load_generation`] decides validity.
    #[must_use]
    pub fn gen_dir(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen_{generation:06}"))
    }

    /// All generation numbers present on disk (valid or not),
    /// ascending. Unrelated entries in the directory are ignored.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when the directory cannot be
    /// listed.
    pub fn generations(&self) -> Result<Vec<u64>, CheckpointError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(n) =
                name.to_string_lossy().strip_prefix("gen_").and_then(|s| s.parse().ok())
            {
                out.push(n);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Commit a new generation holding `files`, returning its number.
    /// Numbers are monotone even past invalid generations: a torn
    /// `gen_7` is never overwritten, the next commit creates `gen_8`.
    ///
    /// # Errors
    /// Returns [`CheckpointError`] on I/O failure or a payload name that
    /// escapes the generation directory; the store's previous newest
    /// valid generation is unaffected either way.
    pub fn commit(&self, files: &[(String, Vec<u8>)]) -> Result<u64, CheckpointError> {
        let generation = self.generations()?.last().map_or(1, |last| last + 1);
        let gdir = self.gen_dir(generation);
        fs::create_dir_all(&gdir)?;
        let mut entries = Vec::with_capacity(files.len());
        for (name, bytes) in files {
            if name == MANIFEST_NAME
                || name.contains(['/', '\\'])
                || name.starts_with('.')
                || name.is_empty()
            {
                return Err(CheckpointError::BadName(gdir.join(name)));
            }
            failpoint::trigger("checkpoint.pre_write")?;
            atomic_write(&gdir.join(name), bytes)?;
            entries.push(ManifestEntry {
                name: name.clone(),
                len: bytes.len() as u64,
                checksum: fnv1a64(bytes),
            });
        }
        // The MANIFEST is the commit point: until it lands, the
        // generation does not exist as far as recovery is concerned.
        failpoint::trigger("checkpoint.pre_manifest")?;
        let manifest = Manifest { generation, entries };
        atomic_write(&gdir.join(MANIFEST_NAME), manifest.render().as_bytes())?;
        mapzero_obs::counter!("checkpoint.saved");
        Ok(generation)
    }

    /// Load one generation, verifying every manifest entry (existence,
    /// length, checksum).
    ///
    /// # Errors
    /// Returns [`CheckpointError::Corrupt`] when anything fails to
    /// verify, [`CheckpointError::Io`] on filesystem errors.
    pub fn load_generation(&self, generation: u64) -> Result<LoadedGeneration, CheckpointError> {
        let gdir = self.gen_dir(generation);
        let manifest_path = gdir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).map_err(|e| {
            CheckpointError::Corrupt(format!("{}: {e}", manifest_path.display()))
        })?;
        let manifest = Manifest::parse(&text)
            .map_err(|e| CheckpointError::Corrupt(format!("{}: {e}", manifest_path.display())))?;
        if manifest.generation != generation {
            return Err(CheckpointError::Corrupt(format!(
                "{}: records generation {}, directory says {generation}",
                manifest_path.display(),
                manifest.generation
            )));
        }
        let mut files = BTreeMap::new();
        for entry in &manifest.entries {
            if entry.name.contains(['/', '\\']) || entry.name.starts_with('.') {
                return Err(CheckpointError::BadName(gdir.join(&entry.name)));
            }
            let path = gdir.join(&entry.name);
            let bytes = fs::read(&path)
                .map_err(|e| CheckpointError::Corrupt(format!("{}: {e}", path.display())))?;
            if bytes.len() as u64 != entry.len {
                return Err(CheckpointError::Corrupt(format!(
                    "{}: length {} != manifest {}",
                    path.display(),
                    bytes.len(),
                    entry.len
                )));
            }
            let sum = fnv1a64(&bytes);
            if sum != entry.checksum {
                return Err(CheckpointError::Corrupt(format!(
                    "{}: checksum {sum:016x} != manifest {:016x}",
                    path.display(),
                    entry.checksum
                )));
            }
            files.insert(entry.name.clone(), bytes);
        }
        Ok(LoadedGeneration { generation, files })
    }

    /// Recover the newest generation that verifies end-to-end, skipping
    /// torn or corrupt ones (counted as `checkpoint.corrupt_skipped`).
    /// `Ok(None)` means the store holds no generation at all.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] only for directory-listing
    /// failures; per-generation corruption is skipped, not surfaced.
    pub fn load_latest_valid(&self) -> Result<Option<LoadedGeneration>, CheckpointError> {
        for generation in self.generations()?.into_iter().rev() {
            match self.load_generation(generation) {
                Ok(loaded) => {
                    mapzero_obs::counter!("checkpoint.recovered");
                    return Ok(Some(loaded));
                }
                Err(CheckpointError::Io(e)) => return Err(CheckpointError::Io(e)),
                Err(_) => {
                    mapzero_obs::counter!("checkpoint.corrupt_skipped");
                }
            }
        }
        Ok(None)
    }

    /// Delete all but the newest `keep` generations (valid or not).
    /// Long-running training commits one generation per epoch; pruning
    /// bounds the disk footprint.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when a removal fails.
    pub fn prune(&self, keep: usize) -> Result<usize, CheckpointError> {
        let generations = self.generations()?;
        let drop_count = generations.len().saturating_sub(keep.max(1));
        for &generation in &generations[..drop_count] {
            fs::remove_dir_all(self.gen_dir(generation))?;
        }
        Ok(drop_count)
    }
}

/// Commit every network the compiler holds as a new verified
/// generation; returns the generation number.
///
/// # Errors
/// Returns [`CheckpointError`] on I/O failure.
pub fn save_compiler_generation(
    compiler: &Compiler,
    dir: impl AsRef<Path>,
) -> Result<u64, CheckpointError> {
    let store = CheckpointStore::open(dir)?;
    let mut files = Vec::new();
    for pe_count in compiler.net_sizes() {
        let Some(net) = compiler.net_for(pe_count) else {
            debug_assert!(false, "net_sizes listed a missing size {pe_count}");
            continue;
        };
        files.push((format!("net_{pe_count}.mzw"), encode_params(&net.params).as_ref().to_vec()));
    }
    store.commit(&files)
}

/// Load the newest valid generation's networks into the compiler.
/// Returns `(generation, nets_loaded)`, or `None` when the store holds
/// no generation at all. Networks are constructed from the compiler's
/// `NetConfig`, so the checkpoint must come from a compiler with the
/// same configuration. Payload files that do not parse as
/// `net_<pe_count>.mzw` — foreign files and malformed stems alike — are
/// skipped uniformly (counted as `checkpoint.unknown_file_skipped`).
///
/// # Errors
/// Returns [`CheckpointError`] on I/O failure or a weight payload that
/// verifies by checksum but does not decode against the compiler's
/// network configuration.
pub fn load_compiler_latest(
    compiler: &mut Compiler,
    dir: impl AsRef<Path>,
) -> Result<Option<(u64, usize)>, CheckpointError> {
    let store = CheckpointStore::open(dir)?;
    let Some(loaded) = store.load_latest_valid()? else {
        return Ok(None);
    };
    let mut count = 0;
    let names: Vec<String> = loaded.names().map(str::to_owned).collect();
    for name in names {
        let parsed: Option<usize> = name
            .strip_prefix("net_")
            .and_then(|s| s.strip_suffix(".mzw"))
            .and_then(|stem| stem.parse().ok());
        let Some(pe_count) = parsed else {
            mapzero_obs::counter!("checkpoint.unknown_file_skipped");
            continue;
        };
        let Some(bytes) = loaded.file(&name) else { continue };
        let mut net = MapZeroNet::new(pe_count, compiler.config().net);
        mapzero_nn::decode_params(&mut net.params, Bytes::from(bytes.to_vec()))?;
        compiler.install_net(net);
        count += 1;
    }
    Ok(Some((loaded.generation, count)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::MapZeroConfig;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mapzero_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn generation_round_trip_preserves_predictions() {
        let dir = temp_dir("gen_roundtrip");
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let mut a = Compiler::new(MapZeroConfig::fast_test());
        let _ = a.map(&dfg, &cgra).unwrap();
        assert_eq!(save_compiler_generation(&a, &dir).unwrap(), 1);
        // A second save makes a newer generation.
        assert_eq!(save_compiler_generation(&a, &dir).unwrap(), 2);

        let mut b = Compiler::new(MapZeroConfig::fast_test());
        let (generation, loaded) = load_compiler_latest(&mut b, &dir).unwrap().unwrap();
        assert_eq!((generation, loaded), (2, 1));
        let problem = crate::problem::Problem::new(&dfg, &cgra, 1).unwrap();
        let env = crate::env::MapEnv::new(&problem);
        let obs = crate::embed::observe(&env);
        assert_eq!(
            a.net_for(16).unwrap().predict(&obs),
            b.net_for(16).unwrap().predict(&obs)
        );
    }

    #[test]
    fn multiple_sizes_saved() {
        let dir = temp_dir("sizes");
        let dfg = suite::by_name("sum").unwrap();
        let mut c = Compiler::new(MapZeroConfig::fast_test());
        let _ = c.map(&dfg, &presets::hrea()).unwrap(); // 16 PEs
        let _ = c.map(&dfg, &presets::morphosys()).unwrap(); // 64 PEs
        assert_eq!(save_compiler_generation(&c, &dir).unwrap(), 1);
        let mut fresh = Compiler::new(MapZeroConfig::fast_test());
        assert_eq!(load_compiler_latest(&mut fresh, &dir).unwrap(), Some((1, 2)));
        assert!(fresh.net_for(16).is_some());
        assert!(fresh.net_for(64).is_some());
    }

    #[test]
    fn corrupted_checkpoint_is_a_clean_error() {
        let dir = temp_dir("corrupt");
        let dfg = suite::by_name("sum").unwrap();
        let mut a = Compiler::new(MapZeroConfig::fast_test());
        let _ = a.map(&dfg, &presets::hrea()).unwrap();
        assert_eq!(save_compiler_generation(&a, &dir).unwrap(), 1);
        assert_eq!(save_compiler_generation(&a, &dir).unwrap(), 2);
        let store = CheckpointStore::open(&dir).unwrap();
        let bytes = store.load_generation(1).unwrap().file("net_16.mzw").unwrap().to_vec();

        // Truncate the newest weight file on disk: it fails its
        // checksum, so the generation is skipped for the prior one.
        std::fs::write(store.gen_dir(2).join("net_16.mzw"), &bytes[..bytes.len() / 2]).unwrap();
        let skipped = mapzero_obs::metrics::registry().counter("checkpoint.corrupt_skipped");
        let before = skipped.get();
        let mut b = Compiler::new(MapZeroConfig::fast_test());
        assert_eq!(load_compiler_latest(&mut b, &dir).unwrap(), Some((1, 1)));
        assert!(skipped.get() > before);

        // A truncated payload that passes its checksum (committed as
        // is) does not decode: a structured error, not a panic.
        let truncated = bytes[..bytes.len() / 2].to_vec();
        store.commit(&[("net_16.mzw".to_owned(), truncated)]).unwrap();
        let mut c = Compiler::new(MapZeroConfig::fast_test());
        let err = load_compiler_latest(&mut c, &dir).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Weights(_)),
            "truncation must surface as a structured error, got {err}"
        );
        // The error chain is inspectable.
        assert!(std::error::Error::source(&err).is_some());

        // Flip payload bytes instead of truncating.
        let mut garbled = bytes;
        for b in garbled.iter_mut().skip(16) {
            *b ^= 0xA5;
        }
        store.commit(&[("net_16.mzw".to_owned(), garbled)]).unwrap();
        let mut d = Compiler::new(MapZeroConfig::fast_test());
        assert!(load_compiler_latest(&mut d, &dir).is_err());
    }

    #[test]
    fn unknown_files_skipped_uniformly() {
        let dir = temp_dir("names");
        let store = CheckpointStore::open(&dir).unwrap();
        // A malformed stem is skipped exactly like a foreign file, not
        // turned into an inconsistent error.
        store
            .commit(&[
                ("README.txt".to_owned(), b"hi".to_vec()),
                ("net_x.mzw".to_owned(), b"junk".to_vec()),
            ])
            .unwrap();
        let skipped = mapzero_obs::metrics::registry().counter("checkpoint.unknown_file_skipped");
        let before = skipped.get();
        let mut c = Compiler::new(MapZeroConfig::fast_test());
        assert_eq!(load_compiler_latest(&mut c, &dir).unwrap(), Some((1, 0)));
        assert_eq!(skipped.get() - before, 2, "both foreign files counted");
    }

    #[test]
    fn bad_name_error_carries_full_path() {
        let dir = temp_dir("badname");
        let store = CheckpointStore::open(&dir).unwrap();
        let err = store.commit(&[("../escape".to_owned(), vec![1])]).unwrap_err();
        let CheckpointError::BadName(path) = err else {
            panic!("expected BadName, got {err:?}");
        };
        assert!(
            path.starts_with(&dir),
            "BadName must carry the full path, got {}",
            path.display()
        );
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            generation: 42,
            entries: vec![
                ManifestEntry { name: "net_16.mzw".into(), len: 9, checksum: 0xabc },
                ManifestEntry { name: "trainer.mzt".into(), len: 0, checksum: 0 },
            ],
        };
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
        assert!(Manifest::parse("garbage").is_err());
        assert!(Manifest::parse("MZCKPT 1\ngeneration x\n").is_err());
        assert!(Manifest::parse("MZCKPT 1\ngeneration 1\nfile only-two-fields\nend 1\n").is_err());
        // Every strict prefix of a rendered manifest must fail to
        // parse — otherwise a torn MANIFEST write could surface as a
        // valid generation with silently fewer files. (The one
        // exception is losing only the final newline, which leaves the
        // content semantically identical.)
        let rendered = m.render();
        for cut in 0..rendered.len() - 1 {
            assert!(
                Manifest::parse(&rendered[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
        // Entry-count mismatches and trailing garbage are rejected.
        assert!(Manifest::parse("MZCKPT 1\ngeneration 1\nend 3\n").is_err());
        assert!(Manifest::parse("MZCKPT 1\ngeneration 1\nend 0\nfile a 1 0\n").is_err());
    }

    #[test]
    fn load_latest_valid_skips_torn_generation() {
        let dir = temp_dir("torn");
        let store = CheckpointStore::open(&dir).unwrap();
        let g1 = store.commit(&[("payload".to_owned(), b"generation one".to_vec())]).unwrap();
        let g2 = store.commit(&[("payload".to_owned(), b"generation two".to_vec())]).unwrap();
        assert!(g2 > g1);

        // Corrupt the newest generation's payload in place.
        let path = store.gen_dir(g2).join("payload");
        std::fs::write(&path, b"generation t!o").unwrap();
        let skipped = mapzero_obs::metrics::registry().counter("checkpoint.corrupt_skipped");
        let before = skipped.get();
        let loaded = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(loaded.generation, g1);
        assert_eq!(loaded.file("payload"), Some(&b"generation one"[..]));
        assert!(skipped.get() > before);

        // A new commit never reuses the torn number.
        let g3 = store.commit(&[("payload".to_owned(), b"three".to_vec())]).unwrap();
        assert_eq!(g3, g2 + 1);
        assert_eq!(store.load_latest_valid().unwrap().unwrap().generation, g3);
    }

    #[test]
    fn missing_manifest_means_invalid_generation() {
        let dir = temp_dir("nomanifest");
        let store = CheckpointStore::open(&dir).unwrap();
        let g1 = store.commit(&[("a".to_owned(), vec![1, 2, 3])]).unwrap();
        // Simulate a crash after payload writes but before the
        // manifest: a bare directory with a payload file.
        let torn = store.gen_dir(g1 + 1);
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("a"), [9, 9, 9]).unwrap();
        assert_eq!(store.load_latest_valid().unwrap().unwrap().generation, g1);
        // Monotone numbering continues past the torn directory.
        assert_eq!(store.commit(&[("a".to_owned(), vec![7])]).unwrap(), g1 + 2);
    }

    #[test]
    fn empty_store_recovers_nothing() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_latest_valid().unwrap().is_none());
        let mut c = Compiler::new(MapZeroConfig::fast_test());
        assert!(load_compiler_latest(&mut c, &dir).unwrap().is_none());
    }

    #[test]
    fn prune_keeps_newest_generations() {
        let dir = temp_dir("prune");
        let store = CheckpointStore::open(&dir).unwrap();
        for i in 0..5u8 {
            store.commit(&[("p".to_owned(), vec![i])]).unwrap();
        }
        assert_eq!(store.prune(2).unwrap(), 3);
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        assert_eq!(store.load_latest_valid().unwrap().unwrap().generation, 5);
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }
}
