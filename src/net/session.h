// Sans-I/O protocol state machines for both ends of an RA session.
//
// All protocol logic — handshake admission, frame dispatch, evidence
// extraction, result matching — lives here, decoupled from sockets:
// callers push whatever bytes arrived (`on_bytes`), drain whatever must
// be written (`outbox`), and collect decoded protocol events. The epoll
// reactor (server.cpp), the blocking client, the load-generating fleet
// and the byte-split differential test all drive the *same* state
// machines, so "the protocol behaves identically however the stream is
// torn" is a property of one class, tested directly.
//
// Neither class touches threads or clocks; each instance is owned by
// exactly one driver thread.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/wire.h"
#include "ra/certificate.h"

namespace pera::net {

/// One decoded evidence round arriving at the server.
struct EvidenceRound {
  crypto::Nonce nonce{};
  crypto::Bytes evidence;
};

/// A challenge a relying-party session asked the server to relay.
struct RelayRequest {
  std::string place;
  core::Challenge challenge;
};

/// How the server decides admission. All hooks are synchronous and run on
/// the session's driver thread.
struct ServerSessionConfig {
  /// Verify a switch quote end-to-end (signature, golden measurement,
  /// place known). Returns kNone to admit. Required.
  std::function<RejectReason(const Quote&)> check_quote;
  /// First-observation check for the hello's session nonce; false =
  /// replay. The server shares one registry across reactors. Required.
  std::function<bool(const crypto::Nonce&)> admit_nonce;
  /// Fresh server-side nonce for the ack. Required.
  std::function<crypto::Nonce()> make_server_nonce;
  /// Counter-quote over the client's nonce (mutual mode). Only called
  /// when a hello asks for mutual attestation and this hook is set;
  /// otherwise mutual requests are answered without a quote.
  std::function<Quote(const crypto::Nonce& client_nonce)> counter_quote;
  bool admit_relying_parties = true;
};

/// Server-side session: bytes in, frames out, evidence rounds surfaced
/// for appraisal.
class ServerSession {
 public:
  enum class State : std::uint8_t {
    kAwaitHello,
    kEstablished,
    kRejected,  // ack queued; close after flushing
    kClosed,    // bye received or protocol error
  };

  explicit ServerSession(const ServerSessionConfig* config)
      : config_(config) {}

  /// Feed received bytes. Returns false on protocol error (the caller
  /// should flush the outbox, then drop the connection).
  bool on_bytes(crypto::BytesView data);

  /// Frames queued for the peer: the connection's only write buffer.
  /// The driver sends it with write_some() (socket.h), which erases what
  /// was written.
  [[nodiscard]] crypto::Bytes& outbox() { return outbox_; }

  /// Queue a signed result for the peer.
  void queue_result(const ra::Certificate& cert);

  /// Relay a challenge to this (switch) session.
  void queue_challenge(const ChallengeFrame& ch);

  /// Evidence rounds decoded since the last take (established sessions
  /// only). Appended in arrival order.
  [[nodiscard]] std::vector<EvidenceRound> take_evidence();

  /// Challenge relays requested since the last take (RP sessions only).
  [[nodiscard]] std::vector<RelayRequest> take_relays();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const {
    return state_ == State::kEstablished;
  }
  [[nodiscard]] bool wants_close() const {
    return state_ == State::kRejected || state_ == State::kClosed;
  }
  [[nodiscard]] bool peer_said_bye() const { return peer_bye_; }
  [[nodiscard]] const std::string& place() const { return place_; }
  [[nodiscard]] SessionRole role() const { return role_; }
  [[nodiscard]] RejectReason reject_reason() const { return reject_; }
  [[nodiscard]] const crypto::Digest& id() const { return id_; }
  [[nodiscard]] std::uint64_t rounds_received() const { return rounds_; }
  [[nodiscard]] const std::string& error_text() const { return error_; }

 private:
  bool handle(Frame&& frame);
  bool handle_hello(const Frame& frame);
  bool fail(std::string why);

  const ServerSessionConfig* config_;
  FrameDecoder decoder_;
  State state_ = State::kAwaitHello;
  SessionRole role_ = SessionRole::kSwitch;
  RejectReason reject_ = RejectReason::kNone;
  std::string place_;
  crypto::Digest id_{};
  crypto::Bytes outbox_;
  std::vector<EvidenceRound> evidence_;
  std::vector<RelayRequest> relays_;
  std::uint64_t rounds_ = 0;
  bool peer_bye_ = false;
  std::string error_;
};

/// Client-side configuration: who we claim to be and how to prove it.
struct ClientSessionConfig {
  std::string place;
  SessionRole role = SessionRole::kSwitch;
  bool want_mutual = false;
  /// The hello quote bound to `nonce` (switch role). Required for
  /// switches; ignored for relying parties.
  std::function<Quote(const crypto::Nonce& nonce)> make_quote;
  /// Verify the appraiser's counter-quote (mutual mode): it must bind
  /// our session nonce. False = handshake fails locally. Required when
  /// want_mutual is set.
  std::function<bool(const Quote&)> verify_counter_quote;
  /// Challenge handler (switch role): produce evidence bytes for the
  /// challenged detail, bound to the challenge nonce. When unset,
  /// challenges are ignored.
  std::function<crypto::Bytes(const core::Challenge&)> answer_challenge;
};

/// Client-side session: drives the handshake, sends evidence rounds,
/// collects results.
class ClientSession {
 public:
  enum class State : std::uint8_t {
    kIdle,
    kAwaitAck,
    kEstablished,
    kRejected,  // server refused us
    kFailed,    // protocol error or counter-quote verification failure
    kClosed,
  };

  ClientSession(ClientSessionConfig config, crypto::Nonce session_nonce);

  /// Queue the hello. Call once, before feeding any bytes.
  void start();

  /// Feed received bytes; false on protocol/handshake failure.
  bool on_bytes(crypto::BytesView data);

  [[nodiscard]] crypto::Bytes& outbox() { return outbox_; }

  /// Queue one evidence round (established sessions).
  void send_evidence(const crypto::Nonce& nonce, crypto::BytesView evidence);

  /// Queue a challenge relay request (relying-party sessions).
  void send_challenge(const std::string& place,
                      const core::Challenge& challenge);

  /// Queue a graceful bye.
  void send_bye();

  /// Results received since the last take, in arrival order.
  [[nodiscard]] std::vector<ra::Certificate> take_results();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const {
    return state_ == State::kEstablished;
  }
  [[nodiscard]] bool failed() const {
    return state_ == State::kRejected || state_ == State::kFailed;
  }
  [[nodiscard]] RejectReason reject_reason() const { return reject_; }
  [[nodiscard]] const crypto::Nonce& session_nonce() const { return nonce_; }
  [[nodiscard]] const crypto::Digest& id() const { return id_; }
  [[nodiscard]] std::uint64_t results_received() const { return results_n_; }
  [[nodiscard]] std::uint64_t challenges_answered() const {
    return challenges_answered_;
  }
  [[nodiscard]] const std::string& error_text() const { return error_; }

 private:
  bool handle(Frame&& frame);
  bool fail(std::string why);

  ClientSessionConfig config_;
  crypto::Nonce nonce_;
  FrameDecoder decoder_;
  State state_ = State::kIdle;
  RejectReason reject_ = RejectReason::kNone;
  crypto::Digest id_{};
  crypto::Bytes outbox_;
  std::vector<ra::Certificate> results_;
  std::uint64_t results_n_ = 0;
  std::uint64_t challenges_answered_ = 0;
  std::string error_;
};

}  // namespace pera::net
