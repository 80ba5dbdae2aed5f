//! Host facts read from `/proc`, and the provenance block every result
//! carries.

use std::path::Path;

/// Clock ticks per second for `/proc/*/stat` CPU times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// On-CPU time (user + system, every thread, including exited ones) of
/// a process, in milliseconds.
pub fn cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 1e3 / USER_HZ
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scheduler time of every live thread of a process: (on-CPU ns,
/// run-queue wait ns), summed over `/proc/<pid>/task/*/schedstat`.
pub fn schedstat(pid: u32) -> (u64, u64) {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return (0, 0);
    };
    let mut run = 0u64;
    let mut wait = 0u64;
    for task in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
            let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
            run += it.next().unwrap_or(0);
            wait += it.next().unwrap_or(0);
        }
    }
    (run, wait)
}

/// `/proc/loadavg`'s three averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark also runs from plain source trees, which have none.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under the program's
/// source directories, in path order: identifies the code measured when
/// there is no commit to name.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "third_party"] {
        walk(Path::new(dir), &mut files);
    }
    files.push("Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Where and on what a result was measured.
pub struct Provenance {
    commit: String,
    source_digest: String,
    cpu_model: String,
    nproc: usize,
    loadavg_before: String,
    sched_before: (u64, u64),
}

impl Provenance {
    /// Records the facts known before the run.
    pub fn begin() -> Provenance {
        Provenance {
            commit: commit(),
            source_digest: source_digest(),
            cpu_model: cpu_model(),
            nproc: nproc(),
            loadavg_before: loadavg(),
            sched_before: schedstat(std::process::id()),
        }
    }

    /// The provenance JSON object, closing the run: load after, and this
    /// process's on-CPU time against run-queue wait over the run (live
    /// threads only; the serving process's figures are in the level
    /// report).
    pub fn finish_json(&self) -> String {
        let (run, wait) = schedstat(std::process::id());
        let run_ms = run.saturating_sub(self.sched_before.0) as f64 / 1e6;
        let wait_ms = wait.saturating_sub(self.sched_before.1) as f64 / 1e6;
        format!(
            "{{\"commit\":\"{}\",\"source_digest\":\"{}\",\"cpu_model\":\"{}\",\"nproc\":{},\
             \"loadavg_before\":\"{}\",\"loadavg_after\":\"{}\",\
             \"bench_on_cpu_ms\":{run_ms:.1},\"bench_runqueue_wait_ms\":{wait_ms:.1}}}",
            self.commit,
            self.source_digest,
            self.cpu_model.replace('"', "'"),
            self.nproc,
            self.loadavg_before,
            loadavg(),
        )
    }
}
