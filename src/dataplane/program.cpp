#include "dataplane/program.h"

#include <algorithm>
#include <stdexcept>

namespace pera::dataplane {

void DataplaneProgram::add_action(ActionDef action) {
  if (std::find(action_ids_.begin(), action_ids_.end(), action.name) ==
      action_ids_.end()) {
    action_ids_.push_back(action.name);
  }
  actions_[action.name] = std::move(action);
  const std::lock_guard<std::mutex> lock(lower_mu_);
  lowered_.reset();
}

const ActionDef* DataplaneProgram::action(const std::string& name) const {
  const auto it = actions_.find(name);
  return it == actions_.end() ? nullptr : &it->second;
}

Table& DataplaneProgram::add_table(std::string name,
                                   std::vector<KeySpec> keys) {
  tables_.push_back(
      std::make_unique<Table>(std::move(name), std::move(keys), &action_ids_));
  const std::lock_guard<std::mutex> lock(lower_mu_);
  lowered_.reset();
  return *tables_.back();
}

Table* DataplaneProgram::table(const std::string& name) {
  for (auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

void DataplaneProgram::declare_register(const std::string& name,
                                        std::size_t size, bool packet_writable,
                                        StateGuard guard) {
  register_decls_.push_back(RegisterDecl{name, size, packet_writable, guard});
  const std::lock_guard<std::mutex> lock(lower_mu_);
  lowered_.reset();
}

std::vector<StateObject> DataplaneProgram::state_objects() const {
  std::vector<StateObject> out;
  out.reserve(tables_.size() + register_decls_.size());
  for (const auto& t : tables_) {
    StateObject obj;
    obj.kind = StateObject::Kind::kTable;
    obj.name = t->name();
    obj.capacity = t->capacity();
    obj.packet_writable = t->packet_writable();
    obj.guarded = t->capacity() > 0 && t->eviction() != EvictionPolicy::kNone;
    out.push_back(std::move(obj));
  }
  for (const auto& d : register_decls_) {
    StateObject obj;
    obj.kind = StateObject::Kind::kRegister;
    obj.name = d.name;
    obj.capacity = d.size;
    obj.packet_writable = d.packet_writable;
    obj.guarded = d.guard != StateGuard::kNone;
    out.push_back(std::move(obj));
  }
  return out;
}

crypto::Digest DataplaneProgram::program_digest() const {
  crypto::Sha256 h;
  h.update("pera.dataplane.program.v1");
  h.update(name_);
  h.update(version_);
  const crypto::Bytes parser_enc = parser_.encode();
  h.update(crypto::BytesView{parser_enc.data(), parser_enc.size()});
  for (const auto& [name, action] : actions_) {
    const crypto::Bytes enc = action.encode();
    h.update(crypto::BytesView{enc.data(), enc.size()});
  }
  for (const auto& t : tables_) {
    const crypto::Bytes enc = t->encode_schema();
    h.update(crypto::BytesView{enc.data(), enc.size()});
  }
  for (const auto& d : register_decls_) {
    h.update(d.name);
    crypto::Bytes buf;
    crypto::append_u64(buf, d.size);
    buf.push_back(d.packet_writable ? 1 : 0);
    buf.push_back(static_cast<std::uint8_t>(d.guard));
    h.update(crypto::BytesView{buf.data(), buf.size()});
  }
  return h.finish();
}

crypto::Digest DataplaneProgram::tables_digest() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(tables_.size());
  for (const auto& t : tables_) leaves.push_back(t->content_digest());
  return crypto::MerkleTree(std::move(leaves)).root();
}

std::uint64_t DataplaneProgram::tables_revision() const {
  std::uint64_t sum = 0;
  for (const auto& t : tables_) sum += t->revision();
  return sum;
}

std::shared_ptr<const LoweredProgram> DataplaneProgram::lowered() const {
  const std::lock_guard<std::mutex> lock(lower_mu_);
  if (!lowered_) lowered_ = std::make_shared<const LoweredProgram>(*this);
  return lowered_;
}

void DataplaneProgram::check_entry(const Table& table,
                                   const TableEntry& entry) const {
  if (action(entry.action) == nullptr) {
    throw std::invalid_argument("program '" + name_ + "': table '" +
                                table.name() + "' entry runs undeclared action '" +
                                entry.action + "'");
  }
}

void DataplaneProgram::check_tables() const {
  for (const auto& t : tables_) {
    if (const std::string* a = t->undeclared_action()) {
      throw std::invalid_argument("program '" + name_ + "': table '" +
                                  t->name() + "' runs undeclared action '" +
                                  *a + "'");
    }
  }
}

PisaSwitch::PisaSwitch(std::shared_ptr<DataplaneProgram> program) {
  load_program(std::move(program));
}

void PisaSwitch::load_program(std::shared_ptr<DataplaneProgram> program) {
  if (!program) throw std::invalid_argument("load_program: null program");
  std::shared_ptr<const LoweredProgram> lowered = program->lowered();
  program->check_tables();
  program_ = std::move(program);
  lowered_ = std::move(lowered);
  regs_ = RegisterFile{};
  for (const auto& d : program_->register_decls()) {
    regs_.declare(d.name, d.size);
  }
}

ParsedPacket PisaSwitch::parse(const RawPacket& raw) {
  ++stats_.packets_in;
  ParsedPacket pkt;
  try {
    lowered_->parse(raw, pkt);
  } catch (const std::exception&) {
    ++stats_.parse_errors;
    throw;
  }
  pkt.meta.packet_id = next_packet_id_++;
  return pkt;
}

void PisaSwitch::run_pipeline(ParsedPacket& pkt) {
  if (!lowered_->run(pkt, regs_, stats_)) ++stats_.pipeline_faults;
}

std::optional<RawPacket> PisaSwitch::deparse(const ParsedPacket& pkt) {
  if (pkt.meta.drop) {
    if (!pkt.faulted()) ++stats_.packets_dropped;
    return std::nullopt;
  }
  ++stats_.packets_out;
  RawPacket out;
  out.port = pkt.meta.egress_port;
  out.data = LoweredProgram::deparse(pkt);
  return out;
}

std::optional<RawPacket> PisaSwitch::process(const RawPacket& raw) {
  ParsedPacket pkt;
  try {
    pkt = parse(raw);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  run_pipeline(pkt);
  return deparse(pkt);
}

}  // namespace pera::dataplane
