module quorumconf/bench

go 1.22

require quorumconf v0.0.0

replace quorumconf => ../
