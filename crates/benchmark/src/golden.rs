//! Golden answers: one digest of the expected serialized reply per
//! distinct request, blessed once from the naive reference server and
//! compared against every reply of every run.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a 64 over the serialized reply.
pub fn digest(text: &str) -> u64 {
    digest_parts(std::iter::once(text))
}

/// The digest of the concatenation of `parts`.
pub fn digest_parts<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.json"))
}

/// Request key → digest. Keys hold no quote or backslash, so the file
/// is a flat JSON object this reader can split on quotes.
pub type Golden = BTreeMap<String, u64>;

pub fn load(workload: &str) -> Result<Golden, String> {
    let p = path(workload);
    let text = std::fs::read_to_string(&p)
        .map_err(|e| format!("{}: {e} (run with --bless to create it)", p.display()))?;
    let strings: Vec<&str> = text.split('"').skip(1).step_by(2).collect();
    if !strings.len().is_multiple_of(2) {
        return Err(format!("{}: unpaired string", p.display()));
    }
    strings
        .chunks(2)
        .map(|kv| {
            u64::from_str_radix(kv[1], 16)
                .map(|d| (kv[0].to_string(), d))
                .map_err(|e| format!("{}: digest of {}: {e}", p.display(), kv[0]))
        })
        .collect()
}

pub fn save(workload: &str, golden: &Golden) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    for (i, (key, d)) in golden.iter().enumerate() {
        let comma = if i + 1 < golden.len() { "," } else { "" };
        out.push_str(&format!("  \"{key}\": \"{d:016x}\"{comma}\n"));
    }
    out.push_str("}\n");
    let p = path(workload);
    std::fs::create_dir_all(p.parent().expect("golden dir"))?;
    std::fs::write(p, out)
}
