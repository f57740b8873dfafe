#include "dataplane/parser.h"

namespace pera::dataplane {

void ParserProgram::add_state(ParserState state) {
  states_[state.name] = std::move(state);
}

crypto::Bytes ParserProgram::encode() const {
  crypto::Bytes out;
  const auto put_str = [&out](const std::string& s) {
    crypto::append_u32(out, static_cast<std::uint32_t>(s.size()));
    crypto::append(out, crypto::as_bytes(s));
  };
  crypto::append_u32(out, static_cast<std::uint32_t>(schema_.size()));
  for (const auto& [name, spec] : schema_) {
    put_str(name);
    crypto::append_u32(out, static_cast<std::uint32_t>(spec.fields.size()));
    for (const auto& f : spec.fields) {
      put_str(f.name);
      crypto::append_u32(out, f.bits);
    }
  }
  crypto::append_u32(out, static_cast<std::uint32_t>(states_.size()));
  for (const auto& [name, st] : states_) {
    put_str(name);
    put_str(st.header);
    if (st.select) {
      out.push_back(1);
      put_str(st.select->field);
      crypto::append_u32(out, static_cast<std::uint32_t>(st.select->cases.size()));
      for (const auto& [v, next] : st.select->cases) {
        crypto::append_u64(out, v);
        put_str(next);
      }
      put_str(st.select->default_next);
    } else {
      out.push_back(0);
      put_str(st.next);
    }
  }
  return out;
}

}  // namespace pera::dataplane
