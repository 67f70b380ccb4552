//! What the benchmark asks the host: `/proc/self/status`.

/// A field of `/proc/self/status`, without its name.
fn status(field: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    Some(line[field.len()..].trim_start_matches(':').trim().to_owned())
}

/// CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
#[must_use]
pub fn allowed_cpus() -> Option<usize> {
    status("Cpus_allowed_list")?
        .split(',')
        .map(|r| {
            let (lo, hi) = r.split_once('-').unwrap_or((r, r));
            Some(hi.trim().parse::<usize>().ok()? - lo.trim().parse::<usize>().ok()? + 1)
        })
        .sum()
}

/// A kB-valued field (`VmRSS`, `VmHWM`), in MiB.
#[must_use]
pub fn status_mib(field: &str) -> Option<f64> {
    Some(status(field)?.split_whitespace().next()?.parse::<f64>().ok()? / 1024.0)
}
