#include "amopt/metrics/energy.hpp"

#include <filesystem>
#include <fstream>

namespace amopt::metrics {

namespace {

namespace fs = std::filesystem;

[[nodiscard]] bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p);
  if (!in) return false;
  std::getline(in, out);
  return !out.empty();
}

[[nodiscard]] bool read_double(const fs::path& p, double& out) {
  std::string s;
  if (!read_file(p, s)) return false;
  try {
    out = std::stod(s);
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

EnergyMeter::EnergyMeter(EnergyModel model) : model_(model) {
  const fs::path root("/sys/class/powercap");
  std::error_code ec;
  if (!fs::exists(root, ec)) return;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("intel-rapl:", 0) != 0) continue;
    Domain d;
    d.energy_path = (entry.path() / "energy_uj").string();
    double probe = 0.0;
    if (!read_double(d.energy_path, probe)) continue;  // not readable
    (void)read_double(entry.path() / "max_energy_range_uj", d.max_range_uj);
    std::string dom_name;
    (void)read_file(entry.path() / "name", dom_name);
    d.is_ram = dom_name.find("dram") != std::string::npos ||
               dom_name.find("ram") != std::string::npos;
    domains_.push_back(std::move(d));
  }
}

void EnergyMeter::start() {
  ops_start_ = snapshot();
  for (auto& d : domains_) (void)read_double(d.energy_path, d.start_uj);
}

EnergySample EnergyMeter::stop() {
  EnergySample sample;
  if (hardware_available()) {
    sample.hardware = true;
    for (auto& d : domains_) {
      double end_uj = d.start_uj;
      if (!read_double(d.energy_path, end_uj)) continue;
      double delta = end_uj - d.start_uj;
      if (delta < 0.0 && d.max_range_uj > 0.0) delta += d.max_range_uj;
      (d.is_ram ? sample.ram_joules : sample.pkg_joules) += delta * 1e-6;
    }
    return sample;
  }
  const OpSnapshot ops = delta(ops_start_, snapshot());
  sample.hardware = false;
  sample.pkg_joules = model_.joules_per_flop * static_cast<double>(ops.flops);
  sample.ram_joules = model_.joules_per_byte * static_cast<double>(ops.bytes);
  return sample;
}

}  // namespace amopt::metrics
