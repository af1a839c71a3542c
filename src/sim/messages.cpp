#include "sim/messages.hpp"

namespace smrp::sim {

std::string_view message_name(const Message& message) {
  struct Visitor {
    std::string_view operator()(const HelloMsg&) const { return "HELLO"; }
    std::string_view operator()(const LsaMsg&) const { return "LSA"; }
    std::string_view operator()(const JoinReqMsg&) const { return "JOIN_REQ"; }
    std::string_view operator()(const JoinAckMsg&) const { return "JOIN_ACK"; }
    std::string_view operator()(const LeaveReqMsg&) const {
      return "LEAVE_REQ";
    }
    std::string_view operator()(const StateRefreshMsg&) const {
      return "STATE_REFRESH";
    }
    std::string_view operator()(const ShrUpdateMsg&) const {
      return "SHR_UPDATE";
    }
    std::string_view operator()(const DataMsg&) const { return "DATA"; }
    std::string_view operator()(const RepairQueryMsg&) const {
      return "REPAIR_QUERY";
    }
    std::string_view operator()(const RepairRespMsg&) const {
      return "REPAIR_RESP";
    }
  };
  return std::visit(Visitor{}, message);
}

}  // namespace smrp::sim
