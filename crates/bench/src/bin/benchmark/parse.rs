//! Parsers for what the `nonfifo` binary and the kernel print. Each
//! returns `None` on anything unexpected; the caller counts that as a
//! failed operation.

/// States named by an `explore` certificate line:
/// `certificate: no invalid execution in scope (exhaustive, N states)`.
pub fn certificate_states(stdout: &str) -> Option<u64> {
    stdout.lines().find_map(|line| {
        line.strip_prefix("certificate: no invalid execution in scope (exhaustive, ")?
            .strip_suffix(" states)")?
            .parse()
            .ok()
    })
}

/// Spill count from the tiered tier's summary line:
/// `visited: N spill(s), ...`.
pub fn spill_count(stdout: &str) -> Option<u64> {
    stdout.lines().find_map(|line| {
        line.strip_prefix("visited: ")?
            .split_once(" spill(s)")?
            .0
            .parse()
            .ok()
    })
}

/// The rendered campaign table: every line that starts with `|`, in order.
pub fn table(text: &str) -> String {
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with('|')).collect();
    rows.join("\n")
}

/// Outcome counts from the campaign summary line:
/// `outcome: A delivered, B stalled, C violation(s), D diverged`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    pub delivered: u64,
    pub stalled: u64,
    pub violations: u64,
    pub diverged: u64,
}

impl Outcomes {
    /// The exit code the CLI contract assigns to these outcomes.
    pub fn exit_code(&self) -> i32 {
        if self.violations + self.diverged > 0 {
            2
        } else if self.stalled > 0 {
            3
        } else {
            0
        }
    }

    /// Runs the line accounts for.
    pub fn total(&self) -> u64 {
        self.delivered + self.stalled + self.violations + self.diverged
    }
}

pub fn outcomes(stdout: &str) -> Option<Outcomes> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("outcome: "))?;
    let mut counts = line
        .split(", ")
        .map(|part| part.split(' ').next()?.parse().ok());
    Some(Outcomes {
        delivered: counts.next()??,
        stalled: counts.next()??,
        violations: counts.next()??,
        diverged: counts.next()??,
    })
}

/// Peak resident set in bytes from a `/proc/<pid>/status` document.
pub fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The bound address from the daemon banner `serving on http://ADDR/`.
pub fn serve_addr(line: &str) -> Option<String> {
    line.trim()
        .strip_prefix("serving on http://")?
        .strip_suffix('/')
        .map(str::to_string)
}

/// The status code of an HTTP/1.1 status line.
pub fn http_status(line: &str) -> Option<u16> {
    let mut words = line.split_whitespace();
    words.next()?.strip_prefix("HTTP/1.")?;
    words.next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_lines_parse() {
        let out = "exploring sequence-number in scope msgs=9 …\n\
                   certificate: no invalid execution in scope (exhaustive, 335919 states)\n\
                   visited: 15 spill(s), 2597728 bytes on disk in 1 run(s), 10576720 bytes\n";
        assert_eq!(certificate_states(out), Some(335_919));
        assert_eq!(spill_count(out), Some(15));
        assert_eq!(
            certificate_states("inconclusive: state budget exhausted after 9 states"),
            None
        );
        assert_eq!(spill_count("certificate: …"), None);
    }

    #[test]
    fn campaign_output_parses() {
        let out = "campaign: 1 scenario(s), 2 run(s), 2 thread(s), plan p\n\n\
                   | scenario | protocol | channel | corrupt | n | seed | outcome | steps | fwd sends | cost/msg | fingerprint |\n\
                   |---|---|---|---|---|---|---|---|---|---|---|\n\
                   | s | abp | fifo | - | 5 | 0 | delivered | 40 | 10 | 2.000 | 00000000000000aa |\n\
                   | s | abp | reorder:4 | - | 5 | 1 | violation | 0 | 3 | 3.000 | 00000000000000bb |\n\
                   \n\
                   outcome: 1 delivered, 0 stalled, 1 violation(s), 0 diverged\n";
        let t = table(out);
        assert_eq!(t.lines().count(), 4);
        let o = outcomes(out).unwrap();
        assert_eq!((o.delivered, o.violations, o.total()), (1, 1, 2));
        assert_eq!(o.exit_code(), 2);
        assert_eq!(outcomes("outcome: 3 delivered").map(|o| o.total()), None);
    }

    #[test]
    fn proc_and_http_lines_parse() {
        let status = "Name:\tnonfifo\nVmPeak:\t  20000 kB\nVmHWM:\t    1234 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(1234 * 1024));
        assert_eq!(vm_hwm_bytes("Name:\tzombie\n"), None);
        assert_eq!(
            serve_addr("serving on http://127.0.0.1:40123/\n").as_deref(),
            Some("127.0.0.1:40123")
        );
        assert_eq!(serve_addr("workers: 2"), None);
        assert_eq!(http_status("HTTP/1.1 200 OK\r\n"), Some(200));
        assert_eq!(http_status("HTTP/1.1 400 Bad Request"), Some(400));
        assert_eq!(http_status("SSH-2.0"), None);
    }
}
