//! One row of a Clip2-style crawl: the per-node metadata the paper's
//! simulator consumes. The original trace carried "each node's ID, IP,
//! port, ping time (from a central node), speed and so on, but we just use
//! the ID, IP and ping time information" (§5.2). We keep the speed field
//! anyway so the trace format is faithful and the bandwidth assignment can
//! optionally correlate with it.

use std::fmt;
use std::net::Ipv4Addr;

/// Advertised connection class of a Gnutella-era servent. The Clip2
/// crawler recorded the servent's self-reported line speed in kbit/s;
/// these buckets cover the values seen in 2000–2001 crawls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeedClass {
    /// Dial-up modems (≤ 56 kbit/s).
    Modem,
    /// ISDN / fractional T1 (64–128 kbit/s).
    Isdn,
    /// Cable / DSL (384–1500 kbit/s).
    Broadband,
    /// Campus / T3-class links (≥ 10 000 kbit/s).
    Lan,
}

impl SpeedClass {
    /// A representative advertised speed in kbit/s for this class.
    pub fn nominal_kbps(self) -> u32 {
        match self {
            SpeedClass::Modem => 56,
            SpeedClass::Isdn => 128,
            SpeedClass::Broadband => 1_000,
            SpeedClass::Lan => 10_000,
        }
    }

    /// Classify a raw advertised speed.
    pub fn from_kbps(kbps: u32) -> Self {
        match kbps {
            0..=60 => SpeedClass::Modem,
            61..=200 => SpeedClass::Isdn,
            201..=5_000 => SpeedClass::Broadband,
            _ => SpeedClass::Lan,
        }
    }
}

impl fmt::Display for SpeedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpeedClass::Modem => "modem",
            SpeedClass::Isdn => "isdn",
            SpeedClass::Broadband => "broadband",
            SpeedClass::Lan => "lan",
        };
        f.write_str(s)
    }
}

/// One crawled node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Crawl-assigned node identifier, unique within a trace.
    pub id: u32,
    /// The servent's IPv4 address.
    pub ip: Ipv4Addr,
    /// The servent's listening port.
    pub port: u16,
    /// Ping round-trip time from the central crawler, in milliseconds.
    /// §5.2 derives pair latencies from differences of these values.
    pub ping_ms: f64,
    /// Advertised line speed in kbit/s.
    pub speed_kbps: u32,
}

impl NodeRecord {
    /// The node's speed class.
    pub fn speed_class(&self) -> SpeedClass {
        SpeedClass::from_kbps(self.speed_kbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_classification_roundtrips() {
        for class in [
            SpeedClass::Modem,
            SpeedClass::Isdn,
            SpeedClass::Broadband,
            SpeedClass::Lan,
        ] {
            assert_eq!(SpeedClass::from_kbps(class.nominal_kbps()), class);
        }
    }

    #[test]
    fn classification_boundaries() {
        assert_eq!(SpeedClass::from_kbps(0), SpeedClass::Modem);
        assert_eq!(SpeedClass::from_kbps(60), SpeedClass::Modem);
        assert_eq!(SpeedClass::from_kbps(61), SpeedClass::Isdn);
        assert_eq!(SpeedClass::from_kbps(200), SpeedClass::Isdn);
        assert_eq!(SpeedClass::from_kbps(201), SpeedClass::Broadband);
        assert_eq!(SpeedClass::from_kbps(5_000), SpeedClass::Broadband);
        assert_eq!(SpeedClass::from_kbps(5_001), SpeedClass::Lan);
    }

    #[test]
    fn display_names() {
        assert_eq!(SpeedClass::Modem.to_string(), "modem");
        assert_eq!(SpeedClass::Lan.to_string(), "lan");
    }
}
