//! Target architecture: processor cores plus one or more reconfigurable
//! fabrics.

use serde::de::{Deserializer, Error, Field, Kind};
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};

use crate::device::Device;
use crate::platform::Platform;
use crate::resources::ResourceVec;
use crate::time::Time;

/// The SoC the application is scheduled onto: `|P|` homogeneous processor
/// cores tightly coupled with one or more partially-reconfigurable fabrics
/// (a [`Platform`]), each served by its own reconfiguration controllers.
///
/// The paper's target is the 1-fabric case, which [`Architecture::new`]
/// builds from a lone [`Device`]. Every scheduler, the floorplanner and
/// the validator run one code path for every fabric count.
///
/// In JSON the `platform` key is omitted when it equals
/// `Platform::single(device)`, and a missing key loads as exactly that, so
/// single-device instance files carry no platform at all.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    /// Number of homogeneous processor cores (`|P|`); the paper's target
    /// (Zynq-7000) has two ARM Cortex-A9 cores. Cores form one shared host
    /// pool regardless of fabric count — software tasks never pay the
    /// inter-fabric crossing latency.
    pub num_processors: usize,
    /// The platform's single-fabric relaxation
    /// ([`Platform::relaxation_device`]): on one fabric the fabric itself,
    /// on several the sum-capacity device used for implementation
    /// selection and coarse bounds. [`ProblemInstance::validate`] rejects
    /// any other value. Per-fabric code goes through
    /// [`Architecture::fabrics`].
    ///
    /// [`ProblemInstance::validate`]: crate::ProblemInstance::validate
    pub device: Device,
    /// Number of reconfiguration controllers *per fabric*. The paper (and
    /// every real Zynq) has exactly one; its ref. \[8\] generalizes to
    /// several, and the schedulers and validator here support that
    /// generalization. Values above 1 let that many reconfigurations
    /// proceed concurrently on each fabric.
    pub num_reconfig_controllers: usize,
    /// The fabrics and their crossing latency.
    pub platform: Platform,
}

impl Architecture {
    /// Builds the paper's single-device architecture with a single
    /// reconfiguration controller: `device` is the lone fabric of a
    /// [`Platform::single`].
    pub fn new(num_processors: usize, device: Device) -> Self {
        Architecture {
            num_processors,
            platform: Platform::single(device.clone()),
            device,
            num_reconfig_controllers: 1,
        }
    }

    /// Builds an architecture targeting a [`Platform`]; `device` becomes
    /// the platform's relaxation, so `on_platform(p, Platform::single(d))`
    /// equals `new(p, d)`.
    pub fn on_platform(num_processors: usize, platform: Platform) -> Self {
        Architecture {
            num_processors,
            device: platform.relaxation_device(),
            num_reconfig_controllers: 1,
            platform,
        }
    }

    /// Overrides the number of reconfiguration controllers (>= 1).
    pub fn with_reconfig_controllers(mut self, k: usize) -> Self {
        self.num_reconfig_controllers = k.max(1);
        self
    }

    /// Number of fabrics.
    #[inline]
    pub fn num_fabrics(&self) -> usize {
        self.platform.num_fabrics()
    }

    /// The fabrics, as a slice of devices.
    #[inline]
    pub fn fabrics(&self) -> &[Device] {
        &self.platform.fabrics
    }

    /// The device describing fabric `f`.
    #[inline]
    pub fn fabric(&self, f: usize) -> &Device {
        &self.fabrics()[f]
    }

    /// Latency added to data edges crossing fabrics (0 on one fabric,
    /// where no edge can cross).
    #[inline]
    pub fn crossing_latency(&self) -> Time {
        self.platform.crossing_latency
    }

    /// The largest hardware implementation the target accepts: the
    /// componentwise minimum over fabric capacities, so every
    /// implementation fits on every fabric and partitioning is never
    /// cornered.
    pub fn impl_capacity(&self) -> ResourceVec {
        self.platform.min_fabric_capacity()
    }

    /// True when `platform` is `Platform::single(device)`, the form the
    /// JSON encoding leaves implicit.
    fn is_single_device(&self) -> bool {
        let p = &self.platform;
        p.crossing_latency == 0
            && p.name == self.device.name
            && p.fabrics.len() == 1
            && p.fabrics[0] == self.device
    }

    /// The paper's evaluation platform: ZedBoard (dual Cortex-A9 + XC7Z020)
    /// with the raw 400 MB/s ICAP throughput from the datasheet.
    pub fn zedboard() -> Self {
        Architecture::new(2, Device::xc7z020())
    }

    /// The ZedBoard at the *effective* configuration throughput of a real
    /// partial-reconfiguration runtime: 50 MB/s (400 bits per µs-tick).
    /// Raw ICAP bandwidth is 400 MB/s, but practical PR managers move
    /// bitstreams through DMA/driver paths that sustain tens of MB/s; this
    /// is the operating point where reconfiguration overhead genuinely
    /// competes with task execution (the paper's §I premise) and the one
    /// the benchmark suite uses.
    pub fn zedboard_pr() -> Self {
        let mut device = Device::xc7z020();
        device.rec_freq = 400;
        Architecture::new(2, device)
    }
}

impl Serialize for Architecture {
    fn serialize(&self, s: &mut Serializer) {
        let mut o = s.object();
        o.field("num_processors", &self.num_processors);
        o.field("device", &self.device);
        o.field("num_reconfig_controllers", &self.num_reconfig_controllers);
        if !self.is_single_device() {
            o.field("platform", &self.platform);
        }
        o.end();
    }
}

/// Decodes the derived shape with two defaults: a missing
/// `num_reconfig_controllers` is 1, and a missing or `null` `platform` is
/// `Platform::single(device)`.
impl Deserialize for Architecture {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        match de.peek()? {
            Kind::Object => de.open_object()?,
            other => return Err(Error::expected("object", "Architecture", other)),
        }
        let mut num_processors = Field::new();
        let mut device = Field::<Device>::new();
        let mut num_reconfig_controllers = Field::new();
        let mut platform = Field::<Option<Platform>>::new();
        while let Some(key) = de.next_key()? {
            match &*key {
                "num_processors" => num_processors.read(de)?,
                "device" => device.read(de)?,
                "num_reconfig_controllers" => num_reconfig_controllers.read(de)?,
                "platform" => platform.read(de)?,
                _ => de.skip()?,
            }
        }
        let missing = |name| Error::missing_field(name, "Architecture");
        let num_processors =
            num_processors.finish("num_processors", || Err(missing("num_processors")))?;
        let device = device.finish("device", || Err(missing("device")))?;
        let num_reconfig_controllers =
            num_reconfig_controllers.finish("num_reconfig_controllers", || Ok(1))?;
        let platform = platform
            .finish("platform", || Ok(None))?
            .unwrap_or_else(|| Platform::single(device.clone()));
        Ok(Architecture {
            num_processors,
            device,
            num_reconfig_controllers,
            platform,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zedboard_shape() {
        let a = Architecture::zedboard();
        assert_eq!(a.num_processors, 2);
        assert_eq!(a.device.name, "xc7z020");
        assert_eq!(a.num_fabrics(), 1);
        assert_eq!(a.crossing_latency(), 0);
        assert_eq!(a.fabric(0), &a.device);
        assert_eq!(a.impl_capacity(), a.device.max_res);
    }

    #[test]
    fn multi_fabric_accessors() {
        let a = Architecture::on_platform(2, Platform::dual_zedboard());
        assert_eq!(a.num_fabrics(), 2);
        assert_eq!(a.crossing_latency(), 50);
        assert_eq!(
            a.device.max_res,
            Platform::dual_zedboard().total_resources()
        );
        assert_eq!(a.impl_capacity(), a.fabric(0).max_res);
    }

    #[test]
    fn missing_platform_field_loads_as_the_single_device_platform() {
        // Single-device instances carry no `platform` key; it loads as the
        // device wrapped as a 1-fabric platform.
        let json = serde_json::to_string(&Architecture::zedboard()).unwrap();
        assert!(!json.contains("platform"), "implicit platform is omitted");
        let a: Architecture = serde_json::from_str(&json).unwrap();
        assert_eq!(a.platform, Platform::single(Device::xc7z020()));
        assert_eq!(a, Architecture::zedboard());
        // An explicit `null` (the encoding of earlier releases) too.
        let legacy = format!("{},\"platform\":null}}", &json[..json.len() - 1]);
        let b: Architecture = serde_json::from_str(&legacy).unwrap();
        assert_eq!(b, a);
        assert_eq!(
            Architecture::new(2, Device::xc7z020()),
            Architecture::on_platform(2, Platform::single(Device::xc7z020()))
        );
    }

    #[test]
    fn multi_fabric_platform_roundtrips_through_json() {
        let a = Architecture::on_platform(3, Platform::alveo_u250()).with_reconfig_controllers(2);
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("\"platform\":{"));
        let back: Architecture = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
