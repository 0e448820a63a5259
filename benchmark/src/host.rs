//! The host and build fingerprint every result file carries.

use crate::json::Json;
use std::process::Command;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Threads the process may run at once.
    pub nproc: usize,
    /// CPU model as `/proc/cpuinfo` names it.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git: String,
}

/// First line a command prints, or `unknown` if it cannot be run. The
/// child has exited by the time `output` returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Host {
    /// Reads the fingerprint of this host and build.
    #[must_use]
    pub fn read() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu,
            rustc: first_line("rustc", &["-V"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc as u64)),
            ("cpu", Json::from(self.cpu.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("profile", Json::from(self.profile)),
            ("git", Json::from(self.git.as_str())),
        ])
    }
}
